"""perfbench's traced rounds swap names in `seldkit.cli` for timing wrappers;
a name renamed or removed there would otherwise break only `--trace 1`."""

import importlib
from pathlib import Path

from seldkit import cli


def test_traced_swaps_cli_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    before = dict(vars(cli))
    with tracing.traced(cli, tracing.Tracer()):
        swapped = {name for name, value in vars(cli).items() if value is not before.get(name)}
    # Among them the names cli imports only for these wrappers.
    assert {"assemble", "stft", "render_scene", "read_wav", "evaluate_many"} <= swapped
    assert vars(cli).keys() == before.keys()
    assert all(vars(cli)[name] is value for name, value in before.items())
