"""Free-text fuzzing of the three spec grammars.

Every user-facing spec — a fault plan, a call-graph service list, a
tenant list — is parsed from text the user typed, so any input must
either parse or fail as a one-line :class:`~repro.errors.ConfigError`;
a raw ``ValueError``/``OverflowError`` would escape the CLI's error
boundary as a traceback. Generated valid fault plans must also survive
a ``spec()``/``parse()`` round trip unchanged, since the spec is what a
cache key, a manifest and a printout carry.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.faults.plan import RESTART_POLICIES
from repro.scenarios.callgraph import parse_services
from repro.scenarios.tenancy import parse_tenants
from tests.hypothesis_profiles import scaled

#: Numbers that have escaped a grammar's validation before, plus the
#: usual edge values.
NUMBERS = ("0", "1", "-1", "0.5", "1e400", "-1e400", "inf", "-inf", "nan",
           "1e-400", "2.5", "1_000", "0x10", "", " ", "99999999999999999999")

#: Each fault kind's parameters, in the order a clause spells them.
FAULT_PARAMS = {
    "telemetry-drop": ("rate",),
    "telemetry-nan": ("rate",),
    "telemetry-stale": ("rate",),
    "telemetry-latency": ("rate", "delay"),
    "telemetry-skew": ("offset",),
    "telemetry-blackout": ("start", "duration"),
    "msr-transient": ("rate",),
    "msr-permanent": ("after",),
    "msr-partial": ("rate",),
    "machine-crash": ("rate", "outage", "restart"),
}

#: A value each fault parameter accepts (``1`` for the rest).
ACCEPTED = {"rate": "0.5", "restart": "enabled"}

#: Grammar tokens: fault kinds and parameters, scenario kinds, and every
#: separator any of the three grammars splits on.
TOKENS = st.sampled_from(
    ("seed=", "rate=", "delay=", "offset=", "start=", "duration=",
     "after=", "outage=", "restart=", "enabled", "stream", "random",
     "chase", "mixed", "a", "b", ";", ":", ",", "=", ">", "*", "+", " ")
    + tuple(FAULT_PARAMS) + NUMBERS)


@st.composite
def fault_shaped(draw):
    """Fault clauses with every parameter present, each accepted or
    hostile, so hostile numbers reach the plan's number checks instead
    of failing an earlier shape check."""
    clauses = []
    for kind in draw(st.lists(st.sampled_from(sorted(FAULT_PARAMS)),
                              min_size=1, max_size=3)):
        pairs = [f"{name}="
                 + draw(st.sampled_from((ACCEPTED.get(name, "1"),)
                                        + NUMBERS))
                 for name in FAULT_PARAMS[kind]]
        clauses.append(f"{kind}:{','.join(pairs)}")
    return ";".join(clauses)


@st.composite
def fields_shaped(draw):
    """``name:kind:field...`` chunks joined by ``;`` or ``,`` — the
    service and tenant shapes with hostile numbers in the fields."""
    field = st.one_of(st.sampled_from(NUMBERS), st.text(max_size=4))
    kind = st.sampled_from(("stream", "random", "chase", "mixed"))
    chunks = [":".join(["svc", draw(kind)]
                       + draw(st.lists(field, min_size=1, max_size=3)))
              for _ in range(draw(st.integers(1, 3)))]
    return draw(st.sampled_from((";", ","))).join(chunks)


#: Grammar-shaped text most of the time, arbitrary text some of it.
FREE_TEXT = st.one_of(
    fault_shaped(),
    fields_shaped(),
    st.lists(TOKENS, max_size=16).map("".join),
    st.text(max_size=40),
)


def _parse_or_none(parse, text: str):
    """``parse(text)``, or ``None`` when it fails as a ``ConfigError``
    (any other exception propagates and fails the test)."""
    try:
        return parse(text)
    except ConfigError:
        return None


@settings(max_examples=scaled(400))
@given(FREE_TEXT)
def test_fault_plan_free_text_raises_only_config_error(text):
    plan = _parse_or_none(FaultPlan.parse, text)
    if plan is not None:
        assert not any(isinstance(value, float) and math.isnan(value)
                       for clause in plan.clauses
                       for _, value in clause.params)


@settings(max_examples=scaled(300))
@given(FREE_TEXT)
def test_services_free_text_raises_only_config_error(text):
    _parse_or_none(parse_services, text)


@settings(max_examples=scaled(300))
@given(FREE_TEXT)
def test_tenants_free_text_raises_only_config_error(text):
    _parse_or_none(parse_tenants, text)


_TIME = st.floats(min_value=0.0, allow_nan=False)
_COUNT = st.integers(min_value=0, max_value=10**6)
#: An in-range value per fault parameter.
VALID = {
    "rate": st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    "delay": _TIME, "start": _TIME, "duration": _TIME,
    "offset": st.floats(allow_nan=False),
    "after": _COUNT, "outage": _COUNT,
    "restart": st.sampled_from(RESTART_POLICIES),
}


@st.composite
def plan_specs(draw):
    """A valid plan spec: distinct kinds, in-range parameters."""
    clauses = []
    if draw(st.booleans()):
        clauses.append(f"seed={draw(st.integers(-2**63, 2**63))}")
    for kind in draw(st.lists(st.sampled_from(sorted(FAULT_PARAMS)),
                              min_size=1, max_size=4, unique=True)):
        pairs = [f"{name}={draw(VALID[name])}"
                 for name in FAULT_PARAMS[kind]]
        clauses.append(f"{kind}:{','.join(pairs)}")
    return ";".join(clauses)


@settings(max_examples=scaled(300))
@given(plan_specs())
def test_fault_plan_spec_round_trips(spec):
    plan = FaultPlan.parse(spec)
    assert FaultPlan.parse(plan.spec()) == plan
