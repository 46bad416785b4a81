"""What importing the package and running a command load, each in a fresh interpreter.

The package resolves its public names on first use, and each command imports
only the layers it runs, so a short command does not pay for the others.
"""

import subprocess
import sys

import numpy as np
import pytest

import polygauss as pg
from conftest import src_env

STUDY_LAYERS = {"numpy.random", "polygauss.gaussianity", "polygauss.noise",
                "polygauss.experiment"}
# appended to a snippet: prints the polygauss and numpy.random modules loaded so far
LOADED = ("\nimport sys\nprint(' '.join(sorted(m for m in sys.modules\n"
          "    if m.startswith(('polygauss', 'numpy.random')))))")


def fresh(code):
    """Run ``code`` in a new interpreter that imports this package; returns its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code):
    return set(fresh(code + LOADED).splitlines()[-1].split())


def test_import_loads_no_layer():
    assert loaded_after("import polygauss") == {"polygauss"}


def test_select_order_loads_only_its_layers():
    assert loaded_after("import polygauss as pg\npg.select_order") == {
        "polygauss", "polygauss.errors", "polygauss.ortho"}


def test_noise_module_leaves_numpy_random_to_the_first_draw():
    code = "from polygauss import noise"
    assert "numpy.random" not in loaded_after(code)
    draw = "\nnoise.draw_noise_ensemble(noise.NoiseSpec('gaussian'), 2, 3, seed=1)"
    assert "numpy.random" in loaded_after(code + draw)


@pytest.mark.parametrize("order", [["--order", "auto", "--sigma2", "0.01"], ["--order", "3"]])
def test_transform_loads_no_study_layer(tmp_path, order):
    src = tmp_path / "in.csv"
    x = np.random.default_rng(3).standard_normal(40)
    src.write_text("index,time,value\n" + "".join(f"{i},{0.1 * i!r},{v!r}\n"
                                                   for i, v in enumerate(x.tolist())))
    argv = ["transform", "--in", str(src), *order, "--out", str(tmp_path / "out.csv")]
    loaded = loaded_after(f"from polygauss.cli import main\nassert main({argv!r}) == 0")
    assert "polygauss.ortho" in loaded
    assert not loaded & STUDY_LAYERS


@pytest.mark.parametrize("order", [["--order", "auto", "--sigma2", "0.01"], ["--order", "3"]])
def test_transform_loads_no_json(tmp_path, order):
    # the JSON writer imports json when it is called; transform writes no document
    src = tmp_path / "in.csv"
    src.write_text("index,time,value\n" + "".join(f"{i},{0.1 * i!r},{float(i % 3)!r}\n"
                                                   for i in range(40)))
    argv = ["transform", "--in", str(src), *order, "--out", str(tmp_path / "out.csv")]
    code = f"import sys\nfrom polygauss.cli import main\nassert main({argv!r}) == 0\n"
    assert fresh(code + "print('json' in sys.modules)").splitlines()[-1] == "False"


def test_test_command_loads_no_study_layer(tmp_path):
    src = tmp_path / "ens.csv"
    rows = np.random.default_rng(3).standard_normal((16, 30)).tolist()
    src.write_text("rep,index,value\n" + "".join(f"{r},{i},{v!r}\n" for r, row in enumerate(rows)
                                                 for i, v in enumerate(row)))
    argv = ["test", "--in", str(src), "--out-dir", str(tmp_path / "out")]
    loaded = loaded_after(f"from polygauss.cli import main\nassert main({argv!r}) == 0")
    # the battery's own layer, and no noise, experiment or numpy.random
    assert loaded == {"polygauss", "polygauss.cli", "polygauss.csvio", "polygauss.errors",
                      "polygauss.gaussianity", "polygauss.ortho"}


def test_every_public_name_is_the_defining_modules_object():
    code = """
import importlib, inspect
import polygauss as pg
wrong = []
for name in pg.__all__:
    obj = getattr(pg, name)
    home = importlib.import_module("polygauss." + pg._HOME[name])
    defined = inspect.isclass(obj) or inspect.isfunction(obj)
    if obj is not getattr(home, name) or (defined and obj.__module__ != home.__name__):
        wrong.append(name)
missing = set(pg.__all__) - set(dir(pg))
print(len(pg.__all__), wrong, sorted(missing))
"""
    assert fresh(code).split() == [str(len(pg.__all__)), "[]", "[]"]
    assert len(pg.__all__) == len(set(pg.__all__)) > 0


def test_submodule_attribute_before_any_other_import():
    code = """
import sys
import polygauss as pg
cfg = pg.experiment.ExperimentConfig.reference(16, 1)
print(pg.experiment is sys.modules["polygauss.experiment"], cfg.fft_len, callable(pg.cli.main))
"""
    assert fresh(code).split() == ["True", "64", "True"]


def test_unknown_attribute_raises_attribute_error():
    code = """
import polygauss as pg
try:
    pg.no_such_name
except AttributeError as exc:
    print(exc)
print(getattr(pg, "NUMBA_ENABLED", "absent"))
"""
    assert fresh(code).splitlines() == [
        "module 'polygauss' has no attribute 'no_such_name'", "absent"]
    with pytest.raises(ImportError):
        from polygauss import no_such_name  # noqa: F401
