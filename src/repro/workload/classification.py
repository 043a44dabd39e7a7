"""Request classification into the 9 SS...LL buckets (paper Table IV).

Requests are bucketed by input and output token counts into Short /
Medium / Long on each axis, producing nine request types: SS, SM, SL,
MS, MM, ML, LS, LM, LL.  The thresholds follow Table IV (33rd / 66th /
100th percentile of the Conversation trace): Short < 256 input or < 100
output tokens, Medium < 1024 input or < 350 output tokens, Long up to
8192 input or >= 350 output tokens.

The number of buckets is itself a design parameter DynamoLLM studies
(Figure 13), so the module also supports coarser and finer schemes via
:class:`ClassificationScheme`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.workload.request import Request


class LengthClass(str, Enum):
    """One axis of the classification (input or output length)."""

    SHORT = "S"
    MEDIUM = "M"
    LONG = "L"


# Default thresholds from Table IV.  A length ``x`` belongs to the first
# bucket whose upper bound is strictly greater than ``x``.
DEFAULT_INPUT_THRESHOLDS: Tuple[int, ...] = (256, 1024, 8192)
DEFAULT_OUTPUT_THRESHOLDS: Tuple[int, ...] = (100, 350, 100_000)


@dataclass(frozen=True)
class RequestType:
    """A (input class, output class) bucket such as ``MM`` or ``SL``."""

    input_class: LengthClass
    output_class: LengthClass

    @cached_property
    def name(self) -> str:
        # Formatted once per object: classification on the default
        # thresholds returns shared canonical instances, so routing and
        # the instance step read a stored string.
        return f"{self.input_class.value}{self.output_class.value}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    @classmethod
    def from_name(cls, name: str) -> "RequestType":
        if len(name) != 2:
            raise ValueError(f"request type name must have two letters, got {name!r}")
        return cls(LengthClass(name[0]), LengthClass(name[1]))

    @property
    def size_rank(self) -> int:
        """Ordering used for 'spill to the next larger pool' decisions.

        Larger rank means the bucket holds larger (more demanding)
        requests.  The output length dominates (decode work dominates
        energy; see Figure 6), input length breaks ties.
        """
        order = {LengthClass.SHORT: 0, LengthClass.MEDIUM: 1, LengthClass.LONG: 2}
        return order[self.output_class] * 3 + order[self.input_class]


_CLASS_ORDER = (LengthClass.SHORT, LengthClass.MEDIUM, LengthClass.LONG)

#: The canonical nine request types in row-major (input, output) order.
REQUEST_TYPES: Tuple[RequestType, ...] = tuple(
    RequestType(i, o) for i in _CLASS_ORDER for o in _CLASS_ORDER
)

REQUEST_TYPE_NAMES: Tuple[str, ...] = tuple(t.name for t in REQUEST_TYPES)

#: Canonical RequestType instances indexed by (input bucket, output
#: bucket) position — classification on the default thresholds returns
#: these shared objects instead of constructing a fresh dataclass per
#: request per step.
_CANONICAL_TYPES: Tuple[Tuple[RequestType, ...], ...] = tuple(
    tuple(RequestType(i, o) for o in _CLASS_ORDER) for i in _CLASS_ORDER
)


def _bucket(length: int, thresholds: Sequence[int]) -> LengthClass:
    """Map a token count onto Short / Medium / Long using thresholds."""
    if length < thresholds[0]:
        return LengthClass.SHORT
    if length < thresholds[1]:
        return LengthClass.MEDIUM
    return LengthClass.LONG


def classify_length(
    input_tokens: int,
    output_tokens: int,
    input_thresholds: Sequence[int] = DEFAULT_INPUT_THRESHOLDS,
    output_thresholds: Sequence[int] = DEFAULT_OUTPUT_THRESHOLDS,
) -> RequestType:
    """Classify raw token counts into one of the nine request types."""
    if (
        input_thresholds is DEFAULT_INPUT_THRESHOLDS
        and output_thresholds is DEFAULT_OUTPUT_THRESHOLDS
    ):
        in_lo, in_mid, _ = DEFAULT_INPUT_THRESHOLDS
        out_lo, out_mid, _ = DEFAULT_OUTPUT_THRESHOLDS
        i = 0 if input_tokens < in_lo else (1 if input_tokens < in_mid else 2)
        o = 0 if output_tokens < out_lo else (1 if output_tokens < out_mid else 2)
        return _CANONICAL_TYPES[i][o]
    return RequestType(
        _bucket(input_tokens, input_thresholds),
        _bucket(output_tokens, output_thresholds),
    )


def classify_lengths(input_tokens: np.ndarray, output_tokens: np.ndarray) -> np.ndarray:
    """Vectorised :func:`classify_length` on the default thresholds.

    Returns each (input, output) pair's index into :data:`REQUEST_TYPES`.
    """
    i = np.searchsorted(DEFAULT_INPUT_THRESHOLDS[:2], input_tokens, side="right")
    o = np.searchsorted(DEFAULT_OUTPUT_THRESHOLDS[:2], output_tokens, side="right")
    return i * len(_CLASS_ORDER) + o


def classify_request(request: Request) -> RequestType:
    """Classify a request by its *true* lengths (oracle classification)."""
    return classify_length(request.input_tokens, request.output_tokens)


# Representative token counts used when a profile or an experiment needs a
# concrete workload for a bucket (e.g. the Table I characterisation).
REPRESENTATIVE_LENGTHS = {
    "SS": (128, 60),
    "SM": (128, 220),
    "SL": (128, 800),
    "MS": (600, 60),
    "MM": (600, 220),
    "ML": (600, 800),
    "LS": (3000, 60),
    "LM": (3000, 220),
    "LL": (3000, 800),
}


def representative_lengths(request_type: RequestType) -> Tuple[int, int]:
    """Typical (input, output) token counts for a bucket."""
    return REPRESENTATIVE_LENGTHS[request_type.name]


#: Near-worst-case prompt length per input class (roughly the P99 inside the
#: bucket).  Used to check TTFT feasibility conservatively: the SLO must hold
#: for the heavy tail of a bucket, not just for its typical request.
WORST_CASE_INPUT_TOKENS = {
    LengthClass.SHORT: 255,
    LengthClass.MEDIUM: 1023,
    LengthClass.LONG: 6000,
}


def worst_case_input_tokens(request_type: RequestType) -> int:
    """Near-worst-case prompt length for a bucket."""
    return WORST_CASE_INPUT_TOKENS[request_type.input_class]


def ttft_safety_factor(request_type: RequestType) -> float:
    """How much tighter the TTFT SLO must be checked for this bucket.

    Prefill latency is proportional to the prompt length, so requiring
    the *representative* request to finish within ``SLO / factor`` is
    equivalent to requiring the near-worst-case request to finish within
    the SLO itself.
    """
    representative_input, _ = REPRESENTATIVE_LENGTHS[request_type.name]
    return worst_case_input_tokens(request_type) / representative_input


@lru_cache(maxsize=None)
def type_intensity(type_name: str) -> float:
    """Total tokens processed per prompt token for a bucket.

    Short-input long-output buckets have a much higher intensity than
    long-input short-output ones: each of their prompt tokens drags far
    more decode work behind it.  The intensity is used to convert loads
    between buckets so that pools serving mixed traffic are sized
    correctly.
    """
    n_in, n_out = REPRESENTATIVE_LENGTHS[type_name]
    return (n_in + n_out) / n_in


@lru_cache(maxsize=1 << 16)
def equivalent_prompt_tokens(
    input_tokens: int, actual_type: str, governing_type: str
) -> float:
    """Convert a request's prompt tokens into a pool's load units.

    A pool's profile and capacity are expressed in prompt tokens of its
    *governing* bucket; requests of other buckets served by the pool
    (spill-over, merged pools) are converted so that one unit of load
    always represents the same amount of work.
    """
    if actual_type == governing_type:
        return float(input_tokens)
    return input_tokens * type_intensity(actual_type) / type_intensity(governing_type)


@dataclass(frozen=True)
class ClassificationScheme:
    """A pooling scheme mapping the nine base buckets onto N pools.

    DynamoLLM's default uses all nine buckets as separate pools; the
    pool-count sensitivity study (Figure 13) merges or splits them.  A
    scheme is described by groups of base bucket names; every base
    bucket must appear in exactly one group.
    """

    name: str
    groups: Tuple[Tuple[str, ...], ...]

    def __post_init__(self) -> None:
        seen: List[str] = []
        for group in self.groups:
            if not group:
                raise ValueError("classification groups must be non-empty")
            seen.extend(group)
        if sorted(seen) != sorted(REQUEST_TYPE_NAMES):
            raise ValueError(
                f"scheme {self.name!r} must cover each of the 9 base buckets exactly "
                f"once; got {sorted(seen)}"
            )

    @property
    def num_pools(self) -> int:
        return len(self.groups)

    def pool_name(self, group: Tuple[str, ...]) -> str:
        return "+".join(group)

    def pool_names(self) -> List[str]:
        return [self.pool_name(group) for group in self.groups]

    # Routing looks both tables up per request; each is built on first
    # use and cached on the (frozen) scheme.
    @cached_property
    def _pool_by_type(self) -> Dict[str, str]:
        return {name: self.pool_name(group) for group in self.groups for name in group}

    @cached_property
    def _spill_targets(self) -> Dict[str, str]:
        return {name: self._spill_target(name) for name in self.pool_names()}

    def pool_of(self, request_type: RequestType) -> str:
        """Name of the pool that serves the given base bucket."""
        try:
            return self._pool_by_type[request_type.name]
        except KeyError:
            raise KeyError(
                f"request type {request_type.name} not covered by scheme {self.name}"
            ) from None

    def members(self, pool_name: str) -> Tuple[str, ...]:
        for group in self.groups:
            if self.pool_name(group) == pool_name:
                return group
        raise KeyError(f"unknown pool {pool_name!r} in scheme {self.name}")

    def heaviest_member(self, pool_name: str) -> RequestType:
        """The largest base bucket in the pool (sets the pool's SLO needs)."""
        members = [RequestType.from_name(name) for name in self.members(pool_name)]
        return max(members, key=lambda t: t.size_rank)

    def pools_by_size(self) -> List[str]:
        """Pool names ordered from smallest to largest request sizes."""
        return sorted(
            self.pool_names(), key=lambda p: self.heaviest_member(p).size_rank
        )

    def next_larger_pool(self, pool_name: str) -> str:
        """The pool serving the next *dominating* request type (spill target).

        Spilled requests must land in a pool whose governing bucket is at
        least as large in **both** dimensions, so that the receiving
        pool's profile never underestimates them: the input class is
        grown first, then the output class.  The largest pool (LL) spills
        onto itself — it is the only pool allowed to be over-provisioned
        (Section IV-B).
        """
        try:
            return self._spill_targets[pool_name]
        except KeyError:
            raise KeyError(f"unknown pool {pool_name!r} in scheme {self.name}") from None

    def _spill_target(self, pool_name: str) -> str:
        governing = self.heaviest_member(pool_name)
        order = list(_CLASS_ORDER)
        input_index = order.index(governing.input_class)
        output_index = order.index(governing.output_class)
        candidates = []
        if input_index + 1 < len(order):
            candidates.append(RequestType(order[input_index + 1], governing.output_class))
        if output_index + 1 < len(order):
            candidates.append(RequestType(governing.input_class, order[output_index + 1]))
        candidates.append(RequestType(LengthClass.LONG, LengthClass.LONG))
        for candidate in candidates:
            target = self.pool_of(candidate)
            if target != pool_name:
                return target
        return pool_name


def _scheme_from_groups(name: str, groups: Sequence[Sequence[str]]) -> ClassificationScheme:
    return ClassificationScheme(name=name, groups=tuple(tuple(g) for g in groups))


#: The paper's default: one pool per base bucket (9 pools).
DEFAULT_SCHEME = _scheme_from_groups("9pool", [[n] for n in REQUEST_TYPE_NAMES])

#: Coarser / finer schemes used by the Figure 13 sensitivity study.  A
#: "16 pool" scheme cannot create more than 9 distinct behaviours with 9
#: base buckets, so it is approximated by splitting the largest buckets
#: into artificial sub-pools (which is exactly the fragmentation the
#: paper observes: more pools than distinct behaviours wastes energy).
POOL_SCHEMES = {
    2: _scheme_from_groups(
        "2pool",
        [["SS", "SM", "MS", "MM", "LS"], ["SL", "ML", "LM", "LL"]],
    ),
    4: _scheme_from_groups(
        "4pool",
        [["SS", "MS", "LS"], ["SM", "MM"], ["SL", "ML"], ["LM", "LL"]],
    ),
    6: _scheme_from_groups(
        "6pool",
        [["SS"], ["MS", "LS"], ["SM", "MM"], ["LM"], ["SL", "ML"], ["LL"]],
    ),
    9: DEFAULT_SCHEME,
}


def scheme_for_pool_count(num_pools: int) -> ClassificationScheme:
    """Return the pooling scheme used for the Figure 13 sweep."""
    if num_pools in POOL_SCHEMES:
        return POOL_SCHEMES[num_pools]
    if num_pools > 9:
        # More pools than base buckets: keep the 9-bucket scheme; the
        # extra pools exist but never receive load (pure fragmentation),
        # which the experiment driver models as extra idle instances.
        return DEFAULT_SCHEME
    raise ValueError(f"no pooling scheme defined for {num_pools} pools")
