"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Expected values marked as derived were computed by the independent
oracles in ``oracles.py`` (shifted-slice reference convolution, central
differences, set-based IoU counting, direct loss formulas) and are asserted
against the production implementations here.
"""

import math
import time

import numpy as np

from oracles import (
    brute_force_iou,
    central_diff_grad,
    direct_dice,
    max_rel_err,
    reference_conv,
)
from scanseg.neural_core import (
    PadSpec,
    SlcKernel,
    conv_backward,
    conv_forward,
    glorot_uniform,
    norm_backward,
    norm_forward,
    relu,
    relu_backward,
    slc_backward,
    slc_forward,
    upsample_width,
    upsample_width_backward,
)
from scanseg.projection import get_rows, occlusion_stats, project_ego_corrected, unfold_scan
from scanseg.seg_net import build, config_from_preset, count_params
from scanseg.seg_objectives import (
    ConfusionMatrix,
    accumulate_confusion,
    cross_entropy,
    dice_loss,
    dice_loss_on_logits,
    miou,
    softmax,
    softmax_backward,
)
from scanseg.synth_lidar import Box, SceneConfig, SensorModel, Sphere, generate_scan
from scanseg.trainer import TrainConfig, bench_forward, make_synthetic_dataset, train

GRAD_TOL = 1e-3
EPS = 1e-3


def _report(number: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_01_slc_degenerates_to_plain_convolution():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        b = int(rng.integers(1, 3))
        h = int(rng.integers(4, 17))
        w = int(rng.integers(4, 33))
        c_in = int(rng.integers(1, 9))
        c_out = int(rng.integers(1, 9))
        ksz = int(rng.choice([3, 5]))
        cyclic = bool(rng.integers(0, 2))
        x = rng.standard_normal((b, h, w, c_in))
        w4 = rng.standard_normal((ksz, ksz, c_in, c_out))
        bias = rng.standard_normal(c_out)
        kernel = SlcKernel(weights=w4[..., None], bias=bias[:, None])
        mode = "cyclic" if cyclic else "zeros"
        got = slc_forward(x, kernel, PadSpec.same(ksz, ksz, mode))
        ref = reference_conv(x, w4, bias, cyclic=cyclic)
        worst = max(worst, float(np.abs(got - ref).max()))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "slc(alpha=1) equals independent convolution",
        worst < 1e-6 and elapsed < 30.0,
        f"max |diff| = {worst:.2e} over 100 trials in {elapsed:.1f} s",
    )


def test_02_gradient_suite_central_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    failures = []

    def check(name, analytic, numeric):
        err = max_rel_err(analytic, numeric)
        if err >= GRAD_TOL:
            failures.append(f"{name}: {err:.2e}")

    # semi-local convolution at alpha in {1, 2, H}
    h = 6
    for alpha in (1, 2, h):
        x = rng.standard_normal((1, h, 8, 2))
        k = SlcKernel(weights=rng.standard_normal((3, 3, 2, 3, alpha)), bias=rng.standard_normal((3, alpha)))
        spec = PadSpec.same(3, 3, "cyclic")
        up = rng.standard_normal((1, h, 8, 3))

        def slc_loss():
            return float((slc_forward(x, k, spec) * up).sum())

        gx, gw, gb = slc_backward(x, k, spec, up)
        check(f"slc(alpha={alpha}) x", gx, central_diff_grad(slc_loss, x, EPS))
        check(f"slc(alpha={alpha}) w", gw, central_diff_grad(slc_loss, k.weights, EPS))
        check(f"slc(alpha={alpha}) b", gb, central_diff_grad(slc_loss, k.bias, EPS))

    # width-strided convolution
    x = rng.standard_normal((1, 4, 8, 2))
    w4 = rng.standard_normal((3, 3, 2, 2))
    up = rng.standard_normal((1, 4, 4, 2))

    def conv_loss():
        return float((conv_forward(x, w4, stride_w=2) * up).sum())

    gx, gw, _ = conv_backward(x, w4, up, stride_w=2)
    check("conv stride 2 x", gx, central_diff_grad(conv_loss, x, EPS))
    check("conv stride 2 w", gw, central_diff_grad(conv_loss, w4, EPS))

    # softmax
    z = rng.standard_normal((2, 3, 4))
    up_s = rng.standard_normal((2, 3, 4))
    check(
        "softmax",
        softmax_backward(softmax(z), up_s),
        central_diff_grad(lambda: float((softmax(z) * up_s).sum()), z, EPS),
    )

    # cross-entropy and Dice, through the softmax to the logits
    z = rng.standard_normal((2, 4, 3))
    targets = rng.integers(0, 3, size=(2, 4)).astype(np.int32)
    check(
        "cross-entropy",
        cross_entropy(softmax(z), targets).grad,
        central_diff_grad(lambda: cross_entropy(softmax(z), targets).value, z, EPS),
    )
    check(
        "dice",
        dice_loss_on_logits(softmax(z), targets).grad,
        central_diff_grad(lambda: dice_loss_on_logits(softmax(z), targets).value, z, EPS),
    )

    # normalization
    xn = rng.standard_normal((2, 3, 4, 2))
    gamma = rng.standard_normal(2) + 1.5
    beta = rng.standard_normal(2)
    up_n = rng.standard_normal(xn.shape)

    def norm_loss():
        return float((norm_forward(xn, gamma, beta)[0] * up_n).sum())

    _, cache = norm_forward(xn, gamma, beta)
    gxn, d_gamma, d_beta = norm_backward(up_n, cache, gamma)
    check("norm x", gxn, central_diff_grad(norm_loss, xn, EPS))
    check("norm gamma", d_gamma, central_diff_grad(norm_loss, gamma, EPS))
    check("norm beta", d_beta, central_diff_grad(norm_loss, beta, EPS))

    # width upsampling and relu
    xu = rng.standard_normal((1, 2, 3, 2))
    up_u = rng.standard_normal((1, 2, 6, 2))
    check(
        "upsample",
        upsample_width_backward(up_u, 2),
        central_diff_grad(lambda: float((upsample_width(xu, 2) * up_u).sum()), xu, EPS),
    )
    xr = rng.standard_normal((1, 3, 4, 2))
    xr[np.abs(xr) < 0.05] = 0.1
    up_r = rng.standard_normal(xr.shape)
    check(
        "relu",
        relu_backward(xr, up_r),
        central_diff_grad(lambda: float((relu(xr) * up_r).sum()), xr, EPS),
    )

    elapsed = time.perf_counter() - t0
    _report(
        2,
        "all backward passes match central differences",
        not failures and elapsed < 120.0,
        f"{'; '.join(failures) if failures else 'rel err < 1e-3 everywhere'} in {elapsed:.1f} s",
    )


def _four_layer_net(mode: str):
    rng = np.random.default_rng(303)
    kernels = [
        glorot_uniform(rng, 3, 3, 3, 8),
        glorot_uniform(rng, 3, 3, 8, 8),
        glorot_uniform(rng, 3, 3, 8, 8),
        glorot_uniform(rng, 1, 1, 8, 5),
    ]
    norms = [(np.ones(k.shape[3], np.float32), np.zeros(k.shape[3], np.float32)) for k in kernels[:3]]

    def run(x):
        t = x
        for k, (gamma, beta) in zip(kernels[:3], norms):
            t = slc_forward(t, k, PadSpec.same(3, 3, mode))
            t, _ = norm_forward(t, gamma, beta)
            t = relu(t)
        return slc_forward(t, kernels[3], PadSpec.same(1, 1, mode))

    return run


def test_03_cyclic_shift_equivariance():
    w = 64
    x = np.random.default_rng(304).standard_normal((1, 16, w, 3)).astype(np.float32)
    cyclic = _four_layer_net("cyclic")
    zeros = _four_layer_net("zeros")
    worst_cyclic = 0.0
    worst_zero = 0.0
    for shift in (1, 7, w // 2):
        diff_c = np.abs(cyclic(np.roll(x, shift, axis=2)) - np.roll(cyclic(x), shift, axis=2)).max()
        diff_z = np.abs(zeros(np.roll(x, shift, axis=2)) - np.roll(zeros(x), shift, axis=2)).max()
        worst_cyclic = max(worst_cyclic, float(diff_c))
        worst_zero = max(worst_zero, float(diff_z))
    _report(
        3,
        "cyclic padding commutes with rotation, zero padding does not",
        worst_cyclic < 1e-5 and worst_zero > 1e-3,
        f"cyclic max |diff| = {worst_cyclic:.2e}, zeros max |diff| = {worst_zero:.2e}",
    )


def test_04_row_recovery():
    t0 = time.perf_counter()
    sensor = SensorModel()  # 64 beams, 2048 firings
    threshold = math.radians(0.3)
    clean = generate_scan(sensor, SceneConfig(seed=404, enclosure_radius=35.0))
    noisy = generate_scan(
        sensor,
        SceneConfig(seed=405, enclosure_radius=35.0, angular_noise=math.degrees(threshold) / 4.0),
    )
    rates = {}
    for mode in ("literal", "robust"):
        rates[f"clean/{mode}"] = float((get_rows(clean.cloud, threshold, mode) == clean.true_rows).mean())
        rates[f"noisy/{mode}"] = float((get_rows(noisy.cloud, threshold, mode) == noisy.true_rows).mean())
    elapsed = time.perf_counter() - t0
    ok = (
        rates["clean/literal"] == 1.0
        and rates["clean/robust"] == 1.0
        and rates["noisy/literal"] >= 0.999
        and rates["noisy/robust"] >= 0.999
        and elapsed < 10.0
    )
    _report(
        4,
        "scan line recovery from azimuth jumps",
        ok,
        f"clean 100%: {rates['clean/literal'] == 1.0}, noisy literal {rates['noisy/literal']:.6f}, "
        f"robust {rates['noisy/robust']:.6f} in {elapsed:.1f} s",
    )


def _occlusion_scene(seed: int, velocity: float) -> SceneConfig:
    rng = np.random.default_rng(seed)
    prims = []
    for _ in range(int(rng.integers(2, 5))):
        ang = rng.uniform(-np.pi, np.pi)
        dist = rng.uniform(6.0, 16.0)
        size = rng.uniform(2.0, 5.0, size=3)
        prims.append(
            Box(center=(dist * np.cos(ang), dist * np.sin(ang), size[2] / 2), size=tuple(size), class_id=3)
        )
    for _ in range(int(rng.integers(1, 3))):
        ang = rng.uniform(-np.pi, np.pi)
        dist = rng.uniform(5.0, 12.0)
        r = rng.uniform(0.8, 1.6)
        prims.append(Sphere(center=(dist * np.cos(ang), dist * np.sin(ang), r), radius=r, class_id=4))
    return SceneConfig(
        seed=seed,
        primitives=tuple(prims),
        enclosure_radius=float(rng.uniform(20.0, 30.0)),
        ego_velocity=velocity,
        n_classes=6,
    )


def test_05_occlusion_ordering_over_twenty_scenes():
    sensor = SensorModel(n_beams=32, azimuth_step=360.0 / 512.0)
    threshold = 1.7 * math.radians(sensor.azimuth_step)
    ego_counts, unfold_counts = [], []
    for i in range(20):
        velocity = 5.0 + 10.0 * i / 19.0  # spans 5 to 15 m/s
        scene = _occlusion_scene(500 + i, velocity)
        scan = generate_scan(sensor, scene)
        _, m_unfold = unfold_scan(scan.cloud, scan.labels, sensor.n_beams, sensor.firings_per_rev, threshold)
        _, m_ego = project_ego_corrected(
            scan.cloud_ego_corrected, scan.labels, sensor.n_beams, sensor.firings_per_rev,
            sensor.fov_up, sensor.fov_down,
        )
        unfold_counts.append(occlusion_stats(m_unfold).n_occluded)
        ego_counts.append(occlusion_stats(m_ego).n_occluded)
    ordering = all(e > u for e, u in zip(ego_counts, unfold_counts))
    lossless = all(u == 0 for u in unfold_counts)
    _report(
        5,
        "motion-corrected projection occludes, unfolding does not",
        ordering and lossless,
        f"ego occlusions {min(ego_counts)}..{max(ego_counts)}, unfold always 0: {lossless}",
    )


def test_06_loss_identities():
    checks = []

    # exact one-hot match
    targets = np.array([[1, 2], [2, 1]], dtype=np.int32)
    one_hot = np.zeros((2, 2, 3))
    for i in range(2):
        for j in range(2):
            one_hot[i, j, targets[i, j]] = 1.0
    checks.append(("dice exact", dice_loss(one_hot, targets).value, 0.0))
    checks.append(("ce exact", cross_entropy(one_hot, targets).value, 0.0))

    # disjoint single pixel
    disjoint = dice_loss(np.array([[[0.0, 1.0]]]), np.array([[0]], dtype=np.int32), ignore_id=None)
    checks.append(("dice disjoint", disjoint.value, 1.0))

    # the half/half fixture, cross-checked against the direct formula
    half = dice_loss(np.array([[[0.5, 0.5]]]), np.array([[0]], dtype=np.int32), ignore_id=None)
    oracle = direct_dice(np.array([[[0.5, 0.5]]]), np.array([[0]]), 2, ignore_id=None)
    checks.append(("dice half", half.value, oracle))
    checks.append(("dice half oracle", oracle, 0.6))

    # uniform prediction over four classes
    uniform = cross_entropy(np.full((1, 1, 4), 0.25), np.array([[2]], dtype=np.int32), ignore_id=None)
    checks.append(("ce uniform", uniform.value, math.log(4.0)))

    bad = [f"{name}: {got:.8f} != {want:.8f}" for name, got, want in checks if abs(got - want) >= 1e-6]
    _report(6, "loss identities", not bad, "; ".join(bad) if bad else "all identities within 1e-6")


def test_07_miou_matches_brute_force():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        c = int(rng.integers(2, 7))
        preds = rng.integers(0, c, size=n)
        targets = rng.integers(0, c, size=n)
        cm = accumulate_confusion(preds, targets, ConfusionMatrix.empty(c))
        iou, mean = miou(cm)
        ref_iou, ref_mean = brute_force_iou(preds, targets, c)
        both_nan = np.isnan(iou) & np.isnan(ref_iou)
        diff = np.abs(np.where(both_nan, 0.0, iou - ref_iou)).max()
        if math.isnan(ref_mean):
            diff = max(diff, 0.0 if math.isnan(mean) else 1.0)
        else:
            diff = max(diff, abs(mean - ref_mean))
        worst = max(worst, float(diff))
    _report(7, "confusion-matrix mIoU equals set-based IoU", worst <= 1e-12, f"max |diff| = {worst:.2e} over 1000 cases")


def test_08_parameter_counting():
    kernel = glorot_uniform(np.random.default_rng(0), 3, 3, 2, 4, alpha=2)
    closed_form = 3 * 3 * 2 * 4 * 2 + 4 * 2
    counts = {name: count_params(build(config_from_preset(name), seed=0)) for name in ("a", "b", "c", "d", "rstar")}
    ordered = list(counts.values())
    increasing = all(y > x for x, y in zip(ordered, ordered[1:]))
    rstar_ok = 0.5 * 50.4e6 <= counts["rstar"] <= 1.5 * 50.4e6
    ok = kernel.param_count == closed_form == 152 and increasing and rstar_ok
    _report(
        8,
        "parameter counts",
        ok,
        f"slc example = {kernel.param_count}, presets = {ordered}, R* within +-50% of 50.4M: {rstar_ok}",
    )


def test_09_end_to_end_training_smoke():
    t0 = time.perf_counter()
    train_set, _ = make_synthetic_dataset(n_scans=16, h=64, w=256, n_object_classes=3, seed=0)
    config = TrainConfig(
        net=config_from_preset("a", n_classes=4),
        loss="ce+dice",
        lr=2e-3,
        steps=200,
        batch_size=2,
        seed=0,
    )
    net_a, report_a = train(config, train_set)
    first_run = time.perf_counter() - t0
    net_b, report_b = train(config, train_set)

    params_a, params_b = net_a.parameters(), net_b.parameters()
    identical = (
        report_a.loss_trace == report_b.loss_trace
        and report_a.miou == report_b.miou
        and all(np.array_equal(params_a[k], params_b[k]) for k in params_a)
    )
    elapsed = time.perf_counter() - t0
    ok = report_a.miou >= 0.90 and identical and elapsed < 600.0
    _report(
        9,
        "200-step smoke training",
        ok,
        f"mIoU = {report_a.miou:.4f} (bar 0.90), repetition bit-identical: {identical}, "
        f"{first_run:.0f} s/run, {elapsed:.0f} s total",
    )


def test_10_relative_forward_speed():
    results = bench_forward(["d", "rstar"], h=64, w=256, repeats=3, seed=0)
    times = {name: sec for name, (sec, _) in results.items()}
    ratio = times["d"] / times["rstar"]
    _report(
        10,
        "config D forward is under 0.6x of R*",
        ratio < 0.6,
        f"time(D) = {times['d'] * 1e3:.0f} ms, time(R*) = {times['rstar'] * 1e3:.0f} ms, ratio = {ratio:.3f}",
    )
