"""Byte-identity pin of every shipped optimizer report.

Each app of ``APP_BUILDERS`` at its default build size is optimized
under each arc-driven scheme, and the sha256 of the canonical JSON of
its :class:`OptimizationReport` (audit trail included) must match the
pin below.  A pair whose ``optimize`` raises pins its error message
instead.  A speed-up of the search must leave every digest unchanged;
regenerate a pin only for a change meant to move the search's result.

One search verifies each arc subset once: a repeated subset is served
from the call's verdict cache.  The differential test re-verifies every
served verdict from scratch, on a fresh graph, and demands equality.
"""

from __future__ import annotations

import hashlib
import importlib
import json

import pytest

from repro.analyze.optimize import ARC_SCHEMES, optimize
from repro.analyze.verifier import AnalysisError, verify_instrumented
from repro.depend.graph import DependenceGraph
from repro.lab.apps import APP_BUILDERS, build_app
from repro.schemes.registry import make_scheme

# the package re-exports the ``optimize`` function under the module's name
optimize_module = importlib.import_module("repro.analyze.optimize")

#: (app, scheme) -> sha256 of the report's JSON, or "<Error>: <message>"
REPORT_DIGESTS = {
    ("fig2.1", "statement-oriented"): "9f7c5a2367ee288da13bf39d8bcbe46774789070805602174ffd1bb1ad6ca4ae",
    ("fig2.1", "process-oriented"): "c4f0a0e1019170e07f7a2b1a36b5dde10a1d0115ecdc9e6f752fc8a272e7a2cf",
    ("fig2.1-delay", "statement-oriented"): "7a822386f6880cfe9123a500dc8311ac2b8e37a5854c57253929e01d337604e4",
    ("fig2.1-delay", "process-oriented"): "9be746c80c3961caba8fdd9a4b7e81b3ccab6a82ae38297d3c4090508d425aa8",
    ("example2", "statement-oriented"): "57aaa1e3de6d39624cb86ceb33d5c2c989e354985721edc055d71b17f1b5e309",
    ("example2", "process-oriented"): "f439fa18a132d3c75e440fbd945d13aaf21af916d3e6ba9db8e628d45021df19",
    ("example3", "statement-oriented"): "1f72232c6782d9ba955efc107b06c8f61f5e5537be3a9bd261ec04ee53f00ea6",
    ("example3", "process-oriented"): "5a71f5d5314675ea56a7a2e22e78ec564cd200a1ffea8ae434279ba39548ce74",
    ("fold-chain", "statement-oriented"): "3228d15e30e498c7774b329ba9562adf442c545dbcb0c14d123948a6998ec484",
    ("fold-chain", "process-oriented"): "b035b3c3a3279283a42d7a0921e0c8d4e09999f9b6f15efdf39ca7f855658209",
    ("relaxation-loop", "statement-oriented"): "3c9830dc76b3df159ec56d2262c621e58bdea9ba10200c2a6decf7a6e9f320ac",
    ("relaxation-loop", "process-oriented"): "b32dc4bb7a56f5d859a653a7df00ff4d930ac7340374d4295788412f01f4adab",
    ("triple-nested", "statement-oriented"): "27d8b8817befd5fec674da1c5ce068e67122cffcc792df091640ef0c4ac8adf4",
    ("triple-nested", "process-oriented"): "ba6564e5272cefcd1734580c824a97c512c7a1e73226c9934d96510b7539c13a",
    ("hydro", "statement-oriented"): "6748aa8dce054977c2537767902ce6158a606695757c98a43820197a6a29195e",
    ("hydro", "process-oriented"): "36286b1ece4b3a4ec03c51e279dd2614f3bd267077129065bfdedd05cdb4ba22",
    ("tridiag", "statement-oriented"): "0042cadac11ae16511ba1e0e3bcfc41914feec5a7e0c5450314edec2018d9aa7",
    ("tridiag", "process-oriented"): "0ab6a647e8c9b8e890d474ae172781e95262fe1c06a343fa37bc5bf271189556",
    ("state", "statement-oriented"): "a1046d4cdb30ca88cf8dc3eb505cde8fd4605c20a28a3907e24f43d53e0bb081",
    ("state", "process-oriented"): "25abde01c1b4386703465ee7a9903a41b5a6de9f1ce92cf1a55763300a351ca9",
    ("adi", "statement-oriented"): "d8c6e57bf6e04ef8eb4df7d588a18c5bf5ab7f7e370c5488bd27c88da57b0452",
    ("adi", "process-oriented"): "cf3d6a6ede5375e0f7874e347aacf647e7f24678bdb1a93330d93f1daa8a8c18",
    ("first-diff", "statement-oriented"): "83dac8fc652aedcbdf4e5a6f64bf981dff6ab3ac008b926c20ec42da2b6359ed",
    ("first-diff", "process-oriented"): "973a006e0eca488aa4c97dd78345a0550348094ef08443c5c1696deb1da07fdd",
    ("prefix", "statement-oriented"): "8802cbc4955a26979eee6e6fa58174e102fa5997fd76e3c4638aae96c8e4c59a",
    ("prefix", "process-oriented"): "a63440e70c80baed3ec616fa992986a2da46bf35fb8ceb147ad22502f7a2fc30",
}

PAIRS = [(app, scheme) for app in APP_BUILDERS for scheme in ARC_SCHEMES]


def _pinned_outcome(app: str, scheme_name: str) -> str:
    loop = build_app(app, {})
    try:
        report = optimize(loop, make_scheme(scheme_name), app=app)
    except Exception as err:  # the pin covers failing pairs too
        return f"{type(err).__name__}: {err}"
    payload = json.dumps(report.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_every_shipped_pair_is_pinned():
    assert sorted(REPORT_DIGESTS) == sorted(PAIRS)


@pytest.mark.parametrize("app,scheme_name", PAIRS)
def test_report_is_byte_identical(app, scheme_name):
    assert _pinned_outcome(app, scheme_name) == \
        REPORT_DIGESTS[(app, scheme_name)]


def _fresh_verdict(loop, scheme, arcs, *, window, app):
    """The gate's verdict with nothing shared: a new graph, no cache."""
    try:
        candidate = scheme.instrument(loop, DependenceGraph(loop), arcs=arcs)
        return verify_instrumented(candidate, window=window, app=app,
                                   scheme_name=scheme.name)
    except AnalysisError:
        return None


@pytest.mark.parametrize("app,scheme_name", PAIRS)
def test_cached_verdicts_equal_fresh_verification(monkeypatch, app,
                                                  scheme_name):
    real_gate = optimize_module._cached_gate
    served = []

    def checked_gate(verdicts, loop, scheme, graph, arcs, **where):
        hit = optimize_module._gate_key(scheme, arcs) in verdicts
        verdict = real_gate(verdicts, loop, scheme, graph, arcs, **where)
        if hit:
            served.append(arcs)
            assert verdict == _fresh_verdict(loop, scheme, arcs, **where)
        return verdict

    monkeypatch.setattr(optimize_module, "_cached_gate", checked_gate)
    try:
        optimize(build_app(app, {}), make_scheme(scheme_name), app=app)
    except AnalysisError:
        pass  # the golden pins the message; served verdicts were checked
    if (app, scheme_name) == ("fig2.1", "process-oriented"):
        assert served, "the search never reused a verdict"


def test_unanalyzable_input_placement_fails_farthest_first_as_before(
        monkeypatch):
    """The search rejects an unanalyzable input placement and goes on
    with other folds; the farthest-first baseline then verifies that
    placement directly and raises the verifier's own error."""
    loop = build_app("fig2.1", {})
    scheme = make_scheme("process-oriented")
    full = [(a.src, a.dst, a.distance) for a in scheme.instrument(loop).arcs]
    real_verify = optimize_module.verify_instrumented

    def refusing(instrumented, **kwargs):
        arcs = [(a.src, a.dst, a.distance) for a in instrumented.arcs]
        if (instrumented.scheme.n_counters == scheme.n_counters
                and arcs == full):
            raise AnalysisError("the input placement is unanalyzable")
        return real_verify(instrumented, **kwargs)

    monkeypatch.setattr(optimize_module, "verify_instrumented", refusing)
    with pytest.raises(AnalysisError, match="input placement is unanalyzable"):
        optimize(loop, scheme, app="fig2.1")
