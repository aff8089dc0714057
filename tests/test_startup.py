"""Start-up: the package and each CLI command load only the layers they run."""
import argparse
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexdomino
from hexdomino import CLASS_PRESETS, cli
from hexdomino.sequences import PRESET_NAMES

# Runs one CLI command in a fresh interpreter, then lists on stderr's last
# line the hexdomino modules it loaded.
PROBE = """\
import sys
from hexdomino.cli import main
main(sys.argv[1:])
sys.stdout.flush()
print(" ".join(sorted(m for m in sys.modules if m.startswith("hexdomino"))), file=sys.stderr)
"""

SEQUENCES_ONLY = {"hexdomino", "hexdomino.cli", "hexdomino.sequences"}


def loaded_modules(*argv: str, code: str = PROBE) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )
    return set(result.stderr.splitlines()[-1].split())


def test_importing_the_package_loads_no_module():
    probe = 'import sys, hexdomino; print(*[m for m in sys.modules if "hexdomino" in m], file=sys.stderr)'
    assert loaded_modules(code=probe) == {"hexdomino"}


@pytest.mark.parametrize("argv", [
    ("count", "--n", "5"),
    ("count", "--n", "9", "--classes", "no-squares"),
    ("sequences", "--name", "T", "--from", "0", "--to", "9"),
])
def test_closed_form_commands_load_only_sequences(argv):
    assert loaded_modules(*argv) == SEQUENCES_ONLY


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "6"),
    ("enumerate", "--n", "6", "--classes", "no-squares", "--format", "jsonl"),
    ("render", "--n", "4", "--tiling", "S1 I3 S4"),
])
def test_enumerate_and_render_skip_verification_layers(argv):
    loaded = loaded_modules(*argv)
    assert "hexdomino.strip_model" in loaded
    assert not loaded & {"hexdomino.identities", "hexdomino.correspondences"}


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "all", "--from", "0", "--to", "8", "--expect-mismatch"),
    ("verify", "--identity", "thm4", "--mode", "oracle", "--from", "5", "--to", "7"),
])
def test_verify_without_thm2_skips_correspondences(argv):
    loaded = loaded_modules(*argv)
    assert "hexdomino.identities" in loaded
    assert "hexdomino.correspondences" not in loaded


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "all", "--from", "0", "--to", "8", "--expect-mismatch"),
    ("verify", "--identity", "thm4", "--from", "5", "--to", "7"),
])
def test_closed_verify_loads_only_sequences_and_identities(argv):
    assert loaded_modules(*argv) == SEQUENCES_ONLY | {"hexdomino.identities"}


@pytest.mark.parametrize("identity", ["all", "thm4"])
def test_oracle_verify_loads_the_enumerator(identity):
    loaded = loaded_modules("verify", "--identity", identity, "--mode", "oracle",
                            "--from", "5", "--to", "5", "--expect-mismatch")
    assert {"hexdomino.enumerator", "hexdomino.strip_model"} <= loaded


def test_the_enumerator_reexports_the_cap_from_sequences():
    from hexdomino import enumerator, sequences

    assert enumerator.max_cells is sequences.max_cells
    assert enumerator.CapExceeded is sequences.CapExceeded


def test_identities_spell_strip_models_class_names():
    # The registry names tile classes and presets without importing them; read
    # each oracle's closure for the names it passes to the enumerator.
    from hexdomino import identities, strip_model

    assert set(identities._INCLINED) == {strip_model.RIGHT_INCLINED, strip_model.LEFT_INCLINED}
    classes, presets = set(), set()
    for descriptor in identities.list_identities():
        for cell in descriptor.oracle.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, tuple):
                classes.update(value)
            elif isinstance(value, str):
                presets.add(value)
    assert classes == strip_model.ALL_CLASSES
    assert presets == {"squares-right", "no-horizontal", "no-squares"} < set(CLASS_PRESETS)


def test_thm2_oracle_loads_correspondences():
    argv = ("verify", "--identity", "thm2_num", "--mode", "oracle", "--from", "6", "--to", "6")
    assert "hexdomino.correspondences" in loaded_modules(*argv)


# As PROBE, but lists every module loaded, not only the package's.
ALL_MODULES = """\
import sys
from hexdomino.cli import main
main(sys.argv[1:])
sys.stdout.flush()
print(" ".join(sys.modules), file=sys.stderr)
"""

# `dataclasses` and what it loads: about 12 ms of start-up without bytecode.
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis"}


# One run of each command, every verify mode and both kinds of bijection.
EVERY_COMMAND = [
    ("count", "--n", "5"),
    ("sequences", "--name", "f", "--from", "0", "--to", "9"),
    ("enumerate", "--n", "6", "--format", "jsonl"),
    ("render", "--n", "4", "--tiling", "S1 I3 S4"),
    ("verify", "--identity", "all", "--from", "0", "--to", "8", "--expect-mismatch"),
    ("verify", "--identity", "all", "--mode", "oracle", "--from", "0", "--to", "8",
     "--expect-mismatch"),
    ("verify", "--identity", "thm2_num", "--mode", "oracle", "--from", "6", "--to", "7"),
    ("bijection", "--name", "thm2", "--n", "8"),
    ("bijection", "--name", "lemma2", "--n", "6"),
]


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_no_command_loads_dataclasses_or_introspection(argv):
    loaded = loaded_modules(*argv, code=ALL_MODULES)
    assert "hexdomino.cli" in loaded
    assert not loaded & INTROSPECTION


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_only_bijection_loads_json(argv):
    # verify writes each record from a line template; bijection encodes a dict
    loaded = loaded_modules(*argv, code=ALL_MODULES)
    assert "hexdomino.cli" in loaded
    assert ("json" in loaded) == (argv[0] == "bijection")


# argparse, and the translation modules it loads for its messages
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [
    *EVERY_COMMAND,
    ("count", "--n", "9", "--classes", "no-squares"),
    ("enumerate", "--n", "6", "--classes", "no-squares", "--format", "jsonl"),
    ("verify", "--identity", "thm4", "--mode", "oracle", "--from", "5", "--to", "7"),
    ("verify", "--identity", "thm4", "--from", "5", "--to", "7"),
    ("verify", "--identity", "thm8", "--mode", "oracle", "--from", "3", "--to", "10"),
])
def test_well_formed_commands_skip_argparse(argv):
    loaded = loaded_modules(*argv, code=ALL_MODULES)
    assert "hexdomino.cli" in loaded
    assert not loaded & ARGPARSE


@pytest.mark.parametrize("argv", [("--help",), ("count", "--n=5")])
def test_help_and_other_spellings_load_argparse(argv):
    loaded = loaded_modules(*argv, code=ALL_MODULES)
    assert "argparse" in loaded


def test_every_public_name_is_its_defining_modules_object():
    for name in hexdomino.__all__:
        module = importlib.import_module(f"hexdomino.{hexdomino._ORIGIN[name]}")
        value = getattr(hexdomino, name)
        assert value is getattr(module, name), name
        # a function or class is named by the module that defines it, not one
        # that re-exports it
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from hexdomino import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hexdomino.__all__)
    assert set(hexdomino.__all__) <= set(dir(hexdomino))


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no attribute 'tetranaci'"):
        hexdomino.tetranaci
    with pytest.raises(ImportError):
        from hexdomino import tetranaci  # noqa: F401
    from hexdomino import identities  # a submodule, not a public name
    assert identities.get_identity is hexdomino.get_identity


def test_classes_choices_are_the_class_presets():
    assert list(PRESET_NAMES) == sorted(CLASS_PRESETS)
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("count", "enumerate"):
        (classes,) = [a for a in commands.choices[command]._actions if a.dest == "classes"]
        assert list(classes.choices) == sorted(CLASS_PRESETS)
