"""What an import loads, each checked in a fresh interpreter.  `import
dt4calc` loads the localization path only; the Chow calculator, the
punctual series and the JSON reader load on first use.  The command line
still loads them at import, so that no compile work moves into a timed
command line call."""

import ast
import os
import subprocess
import sys

import dt4calc
from dt4calc import chow, series

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the names the package serves from a module it imports on first use
SERVED = {
    chow: ["VarietyContext", "cy_hypersurface_context", "liqin_case",
           "projective_plane_context", "structure_sheaf_chi_check",
           "surface_obstruction_identity", "vdim_ideal_cy4"],
    series: ["convolution_oracle", "goettsche_series", "reduced_dt4_tstar"],
}


def _fresh(code, *flags):
    """The literal `code` prints, run in a fresh interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def _loaded_by(statement, *flags):
    """The modules `statement` adds to sys.modules, and those loaded before it."""
    return _fresh("import sys\n"
                  "before = set(sys.modules)\n"
                  f"{statement}\n"
                  "print([sorted(set(sys.modules) - before), sorted(before)])", *flags)


def test_import_dt4calc_loads_only_the_localization_path():
    new, before = _loaded_by("import dt4calc")
    assert "dt4calc.localize" in new
    for name in ("dt4calc.chow", "dt4calc.series", "dt4calc.cli", "dt4calc.suite",
                 "json", "argparse"):
        assert name not in new
    assert "typing" not in new or "typing" in before


def test_import_dt4calc_loads_no_typing_where_site_does_not():
    # a site .pth file may load typing at start-up; -S skips the site hooks
    new, before = _loaded_by("import dt4calc", "-S")
    assert "dt4calc.localize" in new and "typing" not in new + before


def test_import_dt4calc_cli_loads_what_its_commands_run():
    new, _ = _loaded_by("import dt4calc.cli")
    for name in ("dt4calc.chow", "dt4calc.series", "json"):
        assert name in new


@pytest.mark.parametrize("module, name", [(m, n) for m, names in SERVED.items() for n in names],
                         ids=lambda x: getattr(x, "__name__", x))
def test_a_lazy_name_is_its_modules_attribute(module, name):
    assert name in dt4calc.__all__
    assert getattr(dt4calc, name) is getattr(module, name)
    assert name in vars(dt4calc)


def test_a_fresh_lazy_name_loads_its_module():
    new, _ = _loaded_by("from dt4calc import liqin_case")
    assert "dt4calc.chow" in new and "dt4calc.series" not in new
    new, _ = _loaded_by("import dt4calc; dt4calc.goettsche_series")
    assert "dt4calc.series" in new and "dt4calc.chow" not in new
    new, _ = _loaded_by("import dt4calc\n"
                        "if dt4calc.chow is not sys.modules['dt4calc.chow']:\n"
                        "    raise SystemExit('dt4calc.chow is not the module')")
    assert "dt4calc.chow" in new and "dt4calc.series" not in new


def test_star_import_binds_every_exported_name():
    missing = _fresh("namespace = {}\n"
                     "exec('from dt4calc import *', namespace)\n"
                     "import dt4calc\n"
                     "print([n for n in dt4calc.__all__"
                     " if namespace.get(n) is not getattr(dt4calc, n)])")
    assert missing == []


def test_dir_lists_every_exported_name_before_its_module_loads():
    missing = _fresh("import dt4calc\n"
                     "print([n for n in dt4calc.__all__ + ['chow', 'series']"
                     " if n not in dir(dt4calc)])")
    assert missing == []


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"module 'dt4calc' has no attribute 'nope'"):
        dt4calc.nope
    assert not hasattr(dt4calc, "nope")
