"""Tests of the benchmark's outside-in tracer, on shrunken workloads.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run as bench                                          # noqa: E402
from tracer import LAYERS, Tracer                            # noqa: E402
from workloads import WORKLOADS                              # noqa: E402

# same recipes on small meshes (the crime guard keeps a non-nested pair)
SMALL = {
    "lsq_pair": {"mesh_n": 8},
    "lsq_pair_threads2": {"mesh_n": 8},
    "direct_pair_n128": {"mesh_n": 16},
    "direct_crime_guard": {"mesh_n": 12, "data_mesh_n": 16},
}

COMMON = {"mesh.build_square_mesh", "fem.assemble_stiffness", "fem.solve_linear",
          "forward.ForwardOperator.init", "forward.solve_semilinear",
          "forward.ForwardOperator.solve_reaction", "metrics.relative_l2_error",
          "experiments.prepare_data", "experiments.DataBundle.datum_set",
          "experiments.reconstruct"}
LSQ = {"lsq.run_lsq", "lsq.Evaluator.forward_states", "lsq.Evaluator.gradient",
       "lsq.Evaluator.solve_adjoint", "forward.ForwardOperator.solve_linearized"}
DIRECT = {"direct.recover_all_fields", "direct.fit_pair_pointwise"}
TRANSFER = {"transfer.make_locator", "transfer.transfer_field"}
USED = {
    "lsq_pair": COMMON | LSQ,
    "lsq_pair_threads2": COMMON | LSQ,
    "direct_pair_n128": COMMON | DIRECT | {"fem.save_field"},
    "direct_crime_guard": COMMON | DIRECT | TRANSFER,
}

COUNTS = ("forward.newton_steps", "forward.zero_step_ratio", "lsq.bfgs_iterations",
          "lsq.line_search_trials", "lsq.trials_per_iteration",
          "lsq.unconverged_ratio", "direct.flagged_nodes", "transfer.target_nodes",
          "transfer.relocate_ratio")


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def counts(run):
    layers = bench.per_layer(run)
    return {k: v for k, v in layers.items() if k.endswith(".calls") or k in COUNTS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_sees_used_layers_and_no_bypassed_ones(name, tmp_path):
    traced = [bench.measure(small(name), 3, 0.0, True, tmp_path / f"t{k}")
              for k in range(2)]
    untraced = bench.measure(small(name), 3, 0.0, False, tmp_path / "u")

    first = counts(traced[0])
    used = {layer for layer in LAYERS if first[f"{layer}.calls"] > 0}
    assert used == USED[name]
    assert counts(traced[1]) == first
    assert traced[0].tables == traced[1].tables == untraced.tables
    assert untraced.tables


def test_counts_per_unit_do_not_depend_on_the_number_of_sweeps(tmp_path):
    workload = small("direct_crime_guard")
    one = bench.measure(workload, 5, 0.0, True, tmp_path / "one")
    many = bench.measure(workload, 5, 1.0, True, tmp_path / "many")
    assert one.completed == 1 < many.completed
    assert counts(many) == counts(one)
    assert bench.per_layer(one)["transfer.relocate_ratio"] == 4 * one.jobs_per_sweep


def test_every_binding_site_is_patched_and_restored():
    from tppat import experiments, forward, lsq, mesh, metrics
    originals = (forward.solve_semilinear, mesh.build_square_mesh,
                 metrics.relative_l2_error)
    with Tracer().installed():
        assert lsq.solve_semilinear is experiments.solve_semilinear \
            is forward.solve_semilinear is not originals[0]
        assert experiments.build_square_mesh is mesh.build_square_mesh \
            is not originals[1]
        assert experiments.relative_l2_error is metrics.relative_l2_error \
            is not originals[2]
    assert (lsq.solve_semilinear, experiments.build_square_mesh,
            experiments.relative_l2_error) == originals


def test_gate_counts_each_failing_job_once():
    bound = {"sigma": 0.5, "mu": 0.5}
    rows = [("sigma", 0.0, 1, 0.1), ("mu", 0.0, 1, 0.7),       # eps 0 over bound
            ("sigma", 2.0, 1, 9.0), ("mu", 2.0, 1, float("nan")),
            ("sigma", 5.0, 1, 9.0), ("mu", 5.0, 1, 9.0)]
    assert bench.gate_failures(rows, bound, jobs=3) == 2
    assert bench.gate_failures(rows[:2], bound, jobs=3) == 3   # two jobs missing
