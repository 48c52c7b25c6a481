"""perfbench's traced rounds swap names in `seldkit.cli` for timing wrappers
and re-time the public sub-stages of each `assemble` call under probes; a
name renamed or removed in either place would otherwise break only
`--trace 1`."""

import importlib
from pathlib import Path

from seldkit import ArrayFormat, StftConfig, cli, render_scene

from support import single_source_scene


def test_traced_swaps_cli_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    before = dict(vars(cli))
    tracer = tracing.Tracer()
    with tracing.traced(cli, tracer):
        swapped = {name for name, value in vars(cli).items() if value is not before.get(name)}
        # The CLI streams its features, so call the swapped assemble, whose
        # probes read the spatial and baseline stages, directly.
        for kind, feature in (("foa", "salsa"), ("mic", "melspecgcc")):
            scene = single_source_scene(kind, az=40.0, el=10.0, seed=3, duration=0.5,
                                        noise_power=1e-4)
            cli.assemble(render_scene(scene, StftConfig())[0], feature, ArrayFormat(kind))
    # Among them the names cli imports only for these wrappers.
    assert {"assemble", "stft", "render_scene", "read_wav", "evaluate_many"} <= swapped
    assert vars(cli).keys() == before.keys()
    assert all(vars(cli)[name] is value for name, value in before.items())
    layers = tracer.layers()
    assert layers["spatial.candidates"] > 0 and layers["baseline.gcc_s"] > 0
