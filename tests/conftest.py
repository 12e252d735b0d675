from hypothesis import settings

# one profile for every property test: no per-example deadline, since a
# single example can build a scan or a network and its time varies with the
# machine's load; each test still sets its own max_examples
settings.register_profile("scanseg", deadline=None)
settings.load_profile("scanseg")
