"""The data path runs without loading scipy's BLAS; the first GEMM loads
its extension ``scipy.linalg._fblas`` and nothing else of ``scipy.linalg``.

The import checks run in a fresh interpreter, since the test process itself
has long since loaded ``scipy.linalg``.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy

from scanseg import neural_core

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    import numpy as np

    import scanseg
    from scanseg import cli, cloud_io, neural_core, projection, synth_lidar

    sensor = synth_lidar.SensorModel(n_beams=8, azimuth_step=360.0 / 64)
    scene = synth_lidar.SceneConfig(enclosure_radius=12.0, ego_velocity=5.0, seed=1)
    scan = synth_lidar.generate_scan(sensor, scene)
    cloud = cloud_io.read_point_cloud(cloud_io.write_point_cloud(scan.cloud))
    labels = cloud_io.read_labels(cloud_io.write_labels(scan.labels))
    img, index_map = projection.unfold_scan(cloud, labels, 8, 64)
    ego_img, ego_map = projection.project_ego_corrected(scan.cloud_ego_corrected, labels, 8, 64)
    for image in (img, ego_img):
        back = cloud_io.read_range_image_bytes(cloud_io.write_range_image_bytes(image))
        assert np.array_equal(back.depth, image.depth) and np.array_equal(back.label, image.label)
    assert projection.occlusion_stats(index_map).n_points == len(cloud)
    projection.occlusion_stats(ego_map)
    raw = Path(sys.argv[1])
    cloud_io.save_point_cloud(cloud, raw)
    assert cli.main(["project", str(raw), "--height", "8", "--width", "64", "--out", str(raw.with_suffix(".rimg"))]) == 0
    assert "scipy.linalg" not in sys.modules, "the data path loaded scipy.linalg"
    assert "scipy.linalg._fblas" not in sys.modules, "the data path loaded scipy's BLAS"

    from oracles import reference_conv

    rng = np.random.default_rng(0)
    for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
        x = rng.standard_normal((1, 4, 6, 3)).astype(dtype)
        w4 = rng.standard_normal((3, 3, 3, 2)).astype(dtype)
        bias = rng.standard_normal(2).astype(dtype)
        kernel = neural_core.SlcKernel(weights=w4[..., None], bias=bias[:, None])
        y = neural_core.slc_forward(x, kernel, neural_core.PadSpec.same(3, 3, "cyclic"))
        ref = reference_conv(x, w4, bias, cyclic=True)
        assert y.dtype == dtype and np.abs(y - ref).max() <= tol * np.abs(ref).max(), dtype
    assert "scipy.linalg._fblas" in sys.modules
    assert "scipy.linalg" not in sys.modules, "the first GEMM ran the package init of scipy.linalg"

    # the package init reuses the loaded extension, so its GEMMs are ours
    import scipy.linalg.blas

    assert scipy.linalg.blas._fblas is sys.modules["scipy.linalg._fblas"]
    assert neural_core._blas.dgemm is scipy.linalg.blas.dgemm
    assert neural_core._blas.sgemm is scipy.linalg.blas.sgemm
    print("ok")
    """
)


def test_data_path_leaves_scipy_blas_unloaded_until_the_first_gemm(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "scan.bin")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


def test_a_missing_blas_extension_names_itself_and_where_it_was_sought(monkeypatch, tmp_path):
    # the uncached loader, as on a first call in a process whose scipy lacks it
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    monkeypatch.delitem(sys.modules, "scipy.linalg._fblas", raising=False)
    where = re.escape(str(tmp_path / "linalg"))
    with pytest.raises(ImportError, match=rf"^scipy\.linalg\._fblas not found in {where}$"):
        neural_core._scipy_blas.__wrapped__()
