"""Outside-in tracing: complete coverage, exact restore, honest self times."""

from dataclasses import replace

import pytest
import rcnet
from rcbench.measure import traced_run
from rcbench.metrics import PER_LAYER, scope_family
from rcbench.tracer import OP_FAMILIES, Tracer, installed, rcnet_modules
from rcbench.workloads import WORKLOADS
from rcnet import counting, fpn, tensor


def module_bindings() -> dict:
    return {(m.__name__, k): id(v) for m in rcnet_modules() for k, v in vars(m).items()}


def test_every_tensor_op_has_a_family():
    not_ops = {"Tensor", "Tape", "NonFiniteError", "TapeError", "backward"}
    assert set(tensor.__all__) - not_ops == set(OP_FAMILIES)


def test_names_are_wrapped_inside_and_restored_after_an_error():
    before = module_bindings()
    conv, scope, backward = tensor.conv2d, counting.scope, tensor.backward
    with pytest.raises(RuntimeError, match="inside"):
        with installed(Tracer()):
            assert fpn.conv2d is not conv
            assert tensor.conv2d is conv  # ops calling ops inside the core stay direct
            assert counting.scope is not scope
            assert rcnet.backward is tensor.backward is not backward
            raise RuntimeError("inside")
    assert module_bindings() == before


def test_span_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(100000))
    unit = tracer.take()
    calls, total, self_ns, _ = unit["spans"][("outer",)]
    inner = unit["spans"][("outer", "inner")]
    assert calls == 1 and inner[0] == 1
    assert self_ns == total - inner[1]


@pytest.mark.parametrize(
    "path, family",
    [
        (("revfp", "fgu/3"), "revfp.fgu"),
        (("revfp", "pre/3"), "revfp.pre.blend"),
        (("revfp", "post/5", "norm"), "revfp.post.norm"),
        (("checks.invariants", "csn", "context/scale/mid"), "csn.context"),
        (("fixtures", "stem/c6"), "fixtures.stem"),
        (("fpn",), None),
        (("tensor.backward",), None),
    ],
)
def test_scope_families_follow_count_rows(path, family):
    assert scope_family(path) == family


def test_traced_run_reports_every_layer_and_restores(tmp_path):
    before = module_bindings()
    wl = replace(WORKLOADS["desk-infer"], setup_reps=1, warmup=1)
    traced = traced_run(wl, 7, 0.0, tmp_path)
    assert module_bindings() == before
    assert traced.problems == []
    assert set(traced.metrics) == set(PER_LAYER)
    m = {k: v["value"] for k, v in traced.metrics.items()}
    assert m["tensor.conv2d.calls"] > 0 and m["csn.scale_shift.self_ms"] > 0
    assert m["params.count"] == sum(
        f(wl.config(7)).param_count() for f in (rcnet.fpn_params, rcnet.revfp_params, rcnet.csn_params)
    )
    assert traced.run.failed == 0
    assert any(row["scope"] == "revfp/fgu/3" for row in traced.table)
