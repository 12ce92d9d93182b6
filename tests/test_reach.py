"""What the golden script reaches: every module-level function and
method defined in src/img2latex is called by tests/golden_run.py, or is
in UNREACHED with the reason it is not.

The script runs in a subprocess, with OPENBLAS_NUM_THREADS=1 as the
golden test runs it, under a `sys.setprofile` hook that is set before
img2latex is imported, since synth builds its glyph atlas at import.
The hook records each Python call into the package by module and
qualified name.  An entry of UNREACHED that the script does reach, or
that no longer exists, fails the test too, so the list stays the exact
complement of what the script reaches.
"""
import ast
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE = os.path.join(SRC, "img2latex")

_PERFBENCH = ("no command calls it; perfbench/tracing.py wraps it by name "
              "(ROADMAP items 1 and 10)")
_PROFILE = ("train --profile writes timings, which a digest cannot hold; "
            "test_train_profile_writes_the_first_steps_ops_and_changes_no_output "
            "in tests/test_cli.py runs it")
_ERROR = "an error path; tests/test_cli.py runs it"
_FUSED = (_PERFBENCH + "; the encoder runs its kernel inside tensor.conv_layer, and tests "
          "use it as the reference chain")

UNREACHED = {
    "synth._frac_box": "no golden formula has a fraction",
    "tensor.negative": _PERFBENCH,
    "tensor.conv2d": _FUSED,
    "tensor.batchnorm2d": _FUSED,
    "tensor.maxpool2d": _FUSED,
    "tensor.relu": _FUSED,
    "tensor.sigmoid": _PERFBENCH,
    "tensor.softmax": _PERFBENCH,
    "tensor.repeat_rows": _PERFBENCH + "; tests use it as the tiled-memory reference",
    "tensor.profile.__init__": _PROFILE,
    "tensor.profile.__enter__": _PROFILE,
    "tensor.profile.__exit__": _PROFILE,
    "training._write_profile": _PROFILE,
    "tensor.Tensor.__repr__": "a debugging aid; no command prints a Tensor",
    "checkpoint.CheckpointNotFound.__init__": _ERROR + " (a missing --checkpoint)",
    "training.DivergenceError.__init__": _ERROR + " (exit 3 on a non-finite loss)",
    "cli._fail": _ERROR + " (exit 1 and 2)",
}

# run in the child: set the hook, then run the golden script as __main__
_CHILD = r"""
import json, os, runpy, sys
package, out, script, workdir = sys.argv[1:]
prefix, reached = package + os.sep, set()

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(prefix):
        reached.add((frame.f_code.co_filename, frame.f_code.co_qualname))

sys.argv = [script, workdir]
sys.setprofile(hook)
try:
    runpy.run_path(script, run_name="__main__")
except SystemExit as exc:
    if exc.code:
        raise
finally:
    sys.setprofile(None)
with open(out, "w", encoding="utf-8") as fh:
    json.dump(sorted(f"{os.path.basename(path)[:-3]}.{name}" for path, name in reached), fh)
"""


def defined() -> set[str]:
    """module.name of each module-level function and module.Class.name of
    each method, in every module of the package."""
    names = set()
    for file in sorted(os.listdir(PACKAGE)):
        if not file.endswith(".py"):
            continue
        module = file[:-3]
        with open(os.path.join(PACKAGE, file), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                names.update(f"{module}.{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return names


def test_the_golden_script_reaches_every_function_not_listed(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "reached.json"
    proc = subprocess.run([sys.executable, "-c", _CHILD, PACKAGE, str(out),
                           os.path.join(HERE, "golden_run.py"), str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    reached = set(json.loads(out.read_text()))
    unreached = defined() - reached
    assert sorted(unreached - set(UNREACHED)) == [], "reached by no golden step"
    assert sorted(set(UNREACHED) - unreached) == [], "listed, but reached or gone"
