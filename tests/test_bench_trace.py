"""The benchmark's traced run still sees the package's layers.

``bench/layers.py`` wraps functions where the package looks them up
(``decompose.chain_partition``, ``decompose.assemble_network``, ...). A
refactor that renames such a name or stops calling through it would leave
the per-layer metrics reading zero; this test fails instead.
"""

from __future__ import annotations

from pathlib import Path

import opfsens as ops
from opfsens import dcopf, decompose, jacobian

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_layers_are_recorded(monkeypatch, net9, params9, loads9):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import spans

    # a fresh chain: a network decomposed before reuses its stage networks,
    # so only a first decomposition calls assemble_network
    copies, ties = ops.load_chain_config(ops.bundled_chain_config_path())
    net, _ = ops.build_chain(net9, params9, copies, ties)
    tracer = spans.Tracer(layers.TARGETS)
    with tracer.instrument():
        decompose.worst_case_decomposed(
            net, 0, net.index_of("7''") - net.n_gen, collect_ties=True)
        sol = dcopf.solve_opf(net9, params9, loads9)
        bset = dcopf.extract_binding_set(sol, net9, params9)
        jacobian.jacobian_from_binding(net9, bset)

    for name in (
        "decompose.chain_partition",
        "network.assemble_network",
        "sensitivity.tied_argmax_sets",
        "dcopf.extract_binding_set",
        "jacobian.jacobian_from_binding",
        "jacobian.independence_check",
        "linalg.lu_factor_checked",
        "linalg.lu_solve_factored",
    ):
        assert tracer.named(name), f"no span named {name}"
    # the wrappers are gone again
    assert decompose.chain_partition is ops.chain_partition
