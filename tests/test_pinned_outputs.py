"""The outputs a fixed seed must reproduce, pinned by their sha256 digests.

A change that claims "same results" keeps these digests.  A change that moves a
value on purpose updates them, and its CHANGES.md entry names the keys that
moved and by how much.  The digests were recorded under the numpy release named
in ``NUMPY``; another numpy major.minor may round an FFT or a sum differently, so
there the tests skip.
"""

import hashlib

import numpy as np
import pytest

from polygauss.cli import main

# recorded with numpy 2.4.6 and Python 3.11.7 on x86-64 Linux
NUMPY = "2.4"

SIMULATE_DIGESTS = {
    "gamma_input_bicoherence.csv": "1d5479f68c2b1e5e9936c76bb5634d12568429ee8d1e329da69c37729c746829",
    "gamma_input_histogram.csv": "9d6edab6dd5685fb0a21b8f002c6bd95771d311e724caab9c6487316e8f15363",
    "gamma_output_bicoherence.csv": "d9a0accfb778155bc45a10a48fb77739fdbe6902b419588d6790005b8d7748dc",
    "gamma_output_histogram.csv": "4791f3442067f87e2f0db42a98bc84f9d2375a5400dee275dc17699c6f7d638f",
    "gaussian_input_bicoherence.csv": "363ffd7b5db94651e212a5b751c85d9b1c7a51e3b7254e70bb814dadfcaade91",
    "gaussian_input_histogram.csv": "50fec1a55215509b6e2272998bea6dad0ff83f65130610a82ff391636af6e5b7",
    "gaussian_output_bicoherence.csv": "76b53a1c2445c1dc6aaf88cf2117bf8d62494a71192ccb559026f23927b24e8b",
    "gaussian_output_histogram.csv": "36892340b88d214a69479649bec8e4ac8edc7f5e0449ece90f88f502563a089d",
    "laplacian_input_bicoherence.csv": "d36a43175c7f9a2fbbd6868f87d554efb1b86fc6c48d1e50cbbf3c50613713b9",
    "laplacian_input_histogram.csv": "f4a056b0803a45d6af318a2d020fcb74e75122d0509a50f7ee4987cc5febfa82",
    "laplacian_output_bicoherence.csv": "8cd445e551e0709d31a10a9d05303b0d1a43fdadb94e10137916a3e138320910",
    "laplacian_output_histogram.csv": "3e43afad560980628ad349b24aedd8963343098c2c96555406fb5e4ac77d2c1c",
    "summary.json": "5196b94665b6af95d310e62837a251307949c94e058afa78c9029323c35532fc",
    "uniform_input_bicoherence.csv": "34fe2664540c17104821b71ce798c240d84aad9c6ee145e2cc6b74764518e89f",
    "uniform_input_histogram.csv": "2a7bf1e9de44b318b371718a7efeff5208cb4721db9db4b6653ab163e81c2ba9",
    "uniform_output_bicoherence.csv": "65d4f78c9834e1dd8173a83d3b23abe4c404fc1c47c273e86c1972b4d89ab97a",
    "uniform_output_histogram.csv": "a8cd2abca5605df672554a969df69ee14187f6d5f241e8e00849e9901042a417",
}

# polygauss test --fft-len 128 on a seeded 1000 x 100 Laplacian ensemble
TEST_ENSEMBLE_DIGESTS = {
    "bicoherence.csv": "a8c0390d26da761df8d28ee6770a46fa1f8e7cfb427d8e8c481e8e69462229a9",
    "histogram.csv": "108a24ebc449cb33265675393860f91f46255a5076b8e49f82845d2df073d5f1",
    "report.json": "83a8dfc0f55513b84119529b87a659fe6cbadcce3179fd19f8bbedfea120b377",
}

# polygauss test --fft-len 16 on the seeded N=240 record, cut into 15 frames
TEST_SEQUENCE_DIGESTS = {
    "bicoherence.csv": "09c0899ed277170d48a3cf5a39b8935b0a4ce5894dfe608b8bcd8dc6e848bccf",
    "histogram.csv": "5b6fd31e9566cd8892feb8949f2a1c9d493d9fbe863105a20f160b015c2b3504",
    "report.json": "b2585b4be0d151acf79666e5c5b774b469c7642182e9c04597f0072b0bb469ef",
}

GEN_SIGNAL_DIGEST = "94499295fc321403551dea74147f3415b1053a48dbc141073c52b4e1862c280d"

# transform on one seeded N=240 record at dt=0.0375: the basis, the risk curve
# and the fit; a stable basis (ROADMAP item 9) moves these on purpose
TRANSFORM_AUTO_CSV_DIGEST = "5f2a7b3a1d62890f85512c7870f53787a190caebb9a23047b6eb446e8ca57f02"
TRANSFORM_AUTO_STDOUT_DIGEST = "ab6102d4be5ebf34b010d6197521171fe5c9522ced7071ad3e08b2d0045f0d94"
TRANSFORM_ORDER_3_CSV_DIGEST = "0fe7bacba0909b78fecabe5f4027bd60339b26d72f732ccabf091a7accce86b5"

pytestmark = pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != NUMPY,
    reason=f"digests recorded under numpy {NUMPY}.x; this is numpy {np.__version__}",
)


def digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def test_simulate_paper_seed_1(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--paper", "--reps", "500", "--seed", "1",
                 "--out-dir", str(out)]) == 0
    assert digests(out) == SIMULATE_DIGESTS


def test_report_of_seeded_laplacian_ensemble(tmp_path):
    rows = np.random.default_rng(2024).laplace(size=(1000, 100)).tolist()
    csv = tmp_path / "ensemble.csv"
    csv.write_text("rep,index,value\n" + "".join(
        f"{r},{i},{x!r}\n" for r, rec in enumerate(rows) for i, x in enumerate(rec)))
    out = tmp_path / "report"
    assert main(["test", "--in", str(csv), "--fft-len", "128", "--out-dir", str(out)]) == 0
    assert digests(out) == TEST_ENSEMBLE_DIGESTS


def seeded_record(tmp_path):
    """The reference signal plus Laplacian noise at 10 dB, and the noise variance."""
    t = np.arange(240) * 0.0375
    g = sum(a * np.exp(d * t) * np.cos(w * t + p) for a, d, w, p in (
        (1.0, -0.2, 2.0, 0.0), (0.5, -0.1, 4.0, np.pi / 4), (0.5, -0.3, 1.0, np.pi / 6)))
    sigma2 = float(np.mean(g**2)) / 10.0
    x = g + np.random.default_rng(2024).laplace(0.0, np.sqrt(sigma2 / 2.0), 240)
    csv = tmp_path / "record.csv"
    csv.write_text("index,time,value\n" + "".join(
        f"{i},{ti!r},{xi!r}\n" for i, (ti, xi) in enumerate(zip(t.tolist(), x.tolist()))))
    return csv, sigma2


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_report_of_seeded_record(tmp_path):
    csv, _ = seeded_record(tmp_path)
    out = tmp_path / "report"
    assert main(["test", "--in", str(csv), "--fft-len", "16", "--out-dir", str(out)]) == 0
    assert digests(out) == TEST_SEQUENCE_DIGESTS


def test_gen_signal_reference(tmp_path):
    out = tmp_path / "signal.csv"
    assert main(["gen-signal", "--paper-signal", "--n", "60", "--dt", "0.15",
                 "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == GEN_SIGNAL_DIGEST


def test_transform_order_auto(tmp_path, capsys):
    csv, sigma2 = seeded_record(tmp_path)
    out = tmp_path / "fit.csv"
    assert main(["transform", "--in", str(csv), "--order", "auto", "--sigma2", repr(sigma2),
                 "--out", str(out)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == TRANSFORM_AUTO_STDOUT_DIGEST
    assert sha256(out.read_bytes()) == TRANSFORM_AUTO_CSV_DIGEST


def test_transform_order_3(tmp_path):
    csv, _ = seeded_record(tmp_path)
    out = tmp_path / "fit.csv"
    assert main(["transform", "--in", str(csv), "--order", "3", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == TRANSFORM_ORDER_3_CSV_DIGEST
