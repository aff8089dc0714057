"""Registry of counting identities with closed-form and enumeration verification.

Each identity relates a double-strip tiling count (the left side) to a closed
expression in Tetranacci and Fibonacci numbers (the right side).  Closed mode
compares the two evaluators; the left sides of the restricted-family lemmas
read `sequences.closed_count`, the table `hexdomino count --classes` prints,
so closed mode checks that table against the paper's 2^n and f(n).  Oracle
mode recomputes the left side from tile geometry, by the enumerator's passes
over its frontier moves (thm2_num maps one tiling per last-tile window of its
inputs) and, where the defining argument conditions on a tile (first domino,
first square, last tile, crossing of the middle diagonal, ...), checks every
conditioning group against its closed-form term: a first-tile group by first
passage, reach times ways at the move holding that tile, and a last-tile or
crossing group by the window of tiles it reads.

Two entries carry a printed right side that does not equal the left side at
any valid n: the 2^n-complement identity's first term (printed 2T(n-3), which
aggregation of its own cases makes 2T(2n-3)) and the odd-length first-inclined
identity's last factor (printed T(2n-2i+2) where the conditioning yields
T(2n-2i)).  Each printed form is registered, as provenance "paper-stated", as
its "corrected-variant" twin with the printed right side and no partition;
verification demonstrates the mismatch instead of silently patching it.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator

from .sequences import (
    CapExceeded,
    closed_count,
    fibonacci_comb as fib,
    max_cells,
    pow2,
    tetranacci as tet,
)

PAPER_STATED = "paper-stated"
CORRECTED_VARIANT = "corrected-variant"

ABSENT = "absent"  # group key for tilings containing no tile of the conditioned class
_JSON_BOOL = ("false", "true")  # indexed by a bool


class OracleOutcome(namedtuple("OracleOutcome", "total groups", defaults=(None,))):
    """Result of recomputing an identity's left side from tile geometry.

    `total` is the recomputed left-side count.  `groups` maps conditioning
    keys to observed counts (None when the identity has no partition).
    """

    __slots__ = ()


class IdentityDescriptor(namedtuple(
    "IdentityDescriptor",
    "id statement n_lo provenance strip_length lhs rhs oracle partition_expected",
    defaults=(None,),
)):
    """One registered identity, stated for every n >= n_lo; `provenance` is
    PAPER_STATED or CORRECTED_VARIANT.  `strip_length`, `lhs` and `rhs` map n
    to ints, `oracle` to an OracleOutcome, and `partition_expected`, if set,
    to the closed-form term of each conditioning group."""

    __slots__ = ()

    def fit(self, lo: int, hi: int, mode: str) -> range:
        """The n in [lo, hi] inside the stated range and, in oracle mode, the cap.

        Strip lengths rise with n, so the n that fit form one range, and the
        search for the first n past the cap looks only at lo..hi, whatever the cap.
        """
        lo = max(lo, self.n_lo)
        if mode == "oracle":
            limit = max_cells()
            past = (n for n in range(lo, hi + 1) if self.strip_length(n) > limit)
            hi = next(past, hi + 1) - 1
        return range(lo, hi + 1)

    def check_range(self, lo: int, hi: int, mode: str) -> range:
        """range(lo, hi + 1), after raising unless every n in it fits (see `fit`)."""
        if mode not in ("closed", "oracle"):
            raise ValueError(f"mode must be 'closed' or 'oracle', got {mode!r}")
        if lo > hi:
            raise ValueError(f"empty range: lo={lo} > hi={hi}")
        fitted = self.fit(lo, hi, mode)
        if fitted.start > lo:
            raise ValueError(f"{self.id} is stated for {self.n_lo} <= n <= inf, got n={lo}")
        if fitted.stop <= hi:
            raise CapExceeded(
                f"{self.id} at n={hi} needs a {self.strip_length(hi)}-cell enumeration, "
                f"cap is {max_cells()}"
            )
        return fitted

    def record(self, n: int, mode: str) -> IdentityRecord:
        """Verify this identity at one n that passes `check_range`.

        Closed mode compares the two evaluators.  Oracle mode also recomputes
        the left side by enumeration and, when the identity carries a
        partition, checks each conditioning group against its closed-form term.
        """
        lhs, rhs = self.lhs(n), self.rhs(n)
        if mode == "closed":
            return IdentityRecord(self.id, n, lhs, rhs, mode)
        outcome = self.oracle(n)
        groups = None
        if self.partition_expected is not None:
            assert outcome.groups is not None
            groups = _group_checks(self.partition_expected(n), outcome.groups)
        return IdentityRecord(self.id, n, lhs, rhs, mode, oracle_total=outcome.total, groups=groups)

    def lines(self, span: range, mode: str) -> Iterator[tuple[str, bool, bool]]:
        """`record(n, mode)._line_and_checks()` for each n; closed lines skip the record."""
        if mode == "oracle":
            return (self.record(n, mode)._line_and_checks() for n in span)
        id, lhs, rhs = self.id, self.lhs, self.rhs
        return (_json_line(id, n, lhs(n), rhs(n), mode) for n in span)


def _json_line(id, n, lhs, rhs, mode, checks=True, extra="") -> tuple[str, bool, bool]:
    """A record's JSONL line, `checks_ok` and `ok`; `extra` holds the oracle fields."""
    equal = lhs == rhs
    ok = equal and checks
    lhs = "%d" % lhs  # time quadratic in the digits, so an equal rhs reuses this text
    return '{"id":"%s","n":%d,"lhs":"%s","rhs":"%s","equal":%s,"mode":"%s"%s,"ok":%s}' % (
        id, n, lhs, lhs if equal else "%d" % rhs, _JSON_BOOL[equal], mode, extra, _JSON_BOOL[ok]
    ), checks, ok


class GroupCheck(namedtuple("GroupCheck", "key expected observed")):
    __slots__ = ()

    @property
    def match(self) -> bool:
        return self.expected == self.observed


class IdentityRecord(namedtuple(
    "IdentityRecord", "id n lhs rhs mode oracle_total groups", defaults=(None, None)
)):
    __slots__ = ()

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    @property
    def checks_ok(self) -> bool:
        """All verification content except lhs = rhs itself."""
        if self.oracle_total is not None and self.oracle_total != self.lhs:
            return False
        return self.groups is None or all(g.match for g in self.groups)

    @property
    def ok(self) -> bool:
        return self.equal and self.checks_ok

    def to_json_line(self) -> str:
        """JSONL record; counts are decimal strings (they outgrow doubles).  Ids, modes
        and group keys (`absent`, `missing`, `duplicated`, locations, crossing keys such
        as `low-horizontal:square`) are plain ASCII that JSON leaves unescaped."""
        return self._line_and_checks()[0]

    def _line_and_checks(self) -> tuple[str, bool, bool]:
        """`to_json_line`, `checks_ok` and `ok`, each worked out once."""
        extra = "" if self.oracle_total is None else ',"oracle_total":"%d"' % self.oracle_total
        if self.groups is not None:
            extra += ',"groups":[%s]' % ",".join(
                '{"key":"%s","expected":"%d","observed":"%d","match":%s}'
                % (g.key, g.expected, g.observed, _JSON_BOOL[g.match])
                for g in self.groups
            )
        return _json_line(self.id, self.n, self.lhs, self.rhs, self.mode, self.checks_ok, extra)

    def to_json_dict(self) -> dict:
        """The line `to_json_line` builds, parsed."""
        import json  # loaded only here: the CLI writes the line itself
        return json.loads(self.to_json_line())


class VerificationReport(namedtuple("VerificationReport", "id mode records")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)


# --- oracle builders: each runner imports what it walks when it runs ---------

def _partition_oracle(strip_length, classes) -> Callable[[int], OracleOutcome]:
    def runner(n: int) -> OracleOutcome:
        from .enumerator import partition_by_first
        raw = partition_by_first(strip_length(n), classes)
        groups = {ABSENT if k is None else str(k): v for k, v in raw.items()}
        total = sum(raw.values()) - raw.get(None, 0)
        return OracleOutcome(total=total, groups=groups)
    return runner


def _count_oracle(strip_length, preset) -> Callable[[int], OracleOutcome]:
    def runner(n: int) -> OracleOutcome:
        from .enumerator import CLASS_PRESETS, count_by_enumeration
        return OracleOutcome(total=count_by_enumeration(strip_length(n), CLASS_PRESETS[preset]))
    return runner


def _thm1_oracle(n: int) -> OracleOutcome:
    from .enumerator import last_tile_group, tally_by_window
    groups = tally_by_window(n, n - 1, n, last_tile_group)
    return OracleOutcome(total=sum(groups.values()), groups=groups)


def _thm2_oracle(n: int) -> OracleOutcome:
    from .correspondences import thm2_window_cover
    by_length, missing, duplicated = thm2_window_cover(n)
    groups = {str(k): by_length.get(k, 0) for k in (n, n - 5)}
    groups.update(missing=missing, duplicated=duplicated)
    return OracleOutcome(total=sum(by_length.values()), groups=groups)


def _thm3_oracle(n: int) -> OracleOutcome:
    from .enumerator import histogram_by_descriptor
    groups = {d.key: count for d, count in histogram_by_descriptor(n).items()}
    return OracleOutcome(total=sum(groups.values()), groups=groups)


# --- expected partition terms -------------------------------------------------

def thm3_expected_histogram(n: int) -> dict[str, int]:
    """Closed-form crossing-descriptor terms for the 2n-cell strip, n >= 2."""
    if n < 2:
        raise ValueError(f"crossing terms need n >= 2, got {n}")
    return {
        "breakable": tet(n) ** 2,
        "inclined": tet(n - 1) ** 2,
        "both-horizontals": tet(n - 2) ** 2,
        "low-horizontal:square": tet(n - 1) * tet(n - 2),
        "low-horizontal:horizontal": tet(n - 1) * tet(n - 3),
        "high-horizontal:square": tet(n - 1) * tet(n - 2),
        "high-horizontal:horizontal": tet(n - 1) * tet(n - 3),
    }


def _thm1_expected(n: int) -> dict[str, int]:
    return {
        "square": tet(n - 1),
        "inclined": tet(n - 2),
        "horizontal+square": tet(n - 3),
        "horizontal+horizontal": tet(n - 4),
    }


def _thm2_expected(n: int) -> dict[str, int]:
    return {str(n): tet(n), str(n - 5): tet(n - 5), "missing": 0, "duplicated": 0}


def _thm4_expected(n: int) -> dict[str, int]:
    groups = {"2": tet(n - 2)}
    for k in range(3, n):
        groups[str(k)] = 2 * tet(n - k) + tet(n - k - 1)
    groups[str(n)] = 2 * tet(0)
    return groups


def _thm5_expected(n: int) -> dict[str, int]:
    groups = {}
    for location in range(3, 2 * n):
        k = (location + 1) // 2
        if location % 2 == 0:
            groups[str(location)] = pow2(k - 2) * (tet(2 * n - 2 * k) + tet(2 * n - 2 * k - 1))
        else:
            groups[str(location)] = pow2(k - 2) * (2 * tet(2 * n - 2 * k + 1) + tet(2 * n - 2 * k))
    groups[str(2 * n)] = pow2(n - 2) * tet(0)
    return groups


def _thm6_expected(n: int) -> dict[str, int]:
    groups = {"1": tet(2 * n - 1)}
    for t in range(1, n):
        groups[str(2 * t)] = fib(t - 1) * tet(2 * n - 2 * t - 1)
        groups[str(2 * t + 1)] = fib(t) * tet(2 * n - 2 * t - 1)
    return groups


def _thm7_expected(n: int) -> dict[str, int]:
    groups = {str(k): fib(k - 3) * (tet(n - k) + tet(n - k - 1)) for k in range(3, n)}
    groups[str(n)] = fib(n - 3) * tet(0)
    return groups


def _first_inclined_expected(length: int) -> dict[str, int]:
    """g(j) T(length-j) for j = 2..length: the tilings whose first inclined tile is at j,
    where g(j) = f(floor(j/2)-1) f(ceil(j/2)-1) counts the tilings of the cells before it."""
    return {
        str(j): fib(j // 2 - 1) * fib((j + 1) // 2 - 1) * tet(length - j)
        for j in range(2, length + 1)
    }


# --- right sides ---------------------------------------------------------------

class _Stepper:
    """s(n) = step(n, window) past seed = (s(first), s(first + 1), ...), the window holding
    the len(seed) values before s(n).  Keeps the latest window; a lower n restarts at the seed."""

    def __init__(self, first: int, seed: tuple[int, ...], step: Callable[..., int]) -> None:
        self.first, self.step = first, step
        self.seed = self.state = (first + len(seed) - 1, seed)  # window[-1] == s(last)

    def __call__(self, n: int) -> int:
        if n < self.first:
            raise ValueError(f"stepped sum starts at n={self.first}, got n={n}")
        last, window = self.state if n > self.state[0] - len(self.state[1]) else self.seed
        while last < n:
            last += 1
            window = (*window[1:], self.step(last, window))
        self.state = (last, window)
        return window[n - last - 1]


# Each sum steps by its weights' own recurrence, never by T's: a prefix sum (thm4), Horner's
# rule in 2^i (thm5's two sums), f(i) = f(i-1) + f(i-2) (thm6, thm7).  The thm8 family sums
# g(j) T(L-j) over even j, E(L), and odd j, O(L), apart: g(2k) = f(k-1)^2, g(2k+1) = f(k-1) f(k).
# Each steps from L-2, L-4 and L-6, so per parity p of L: _e<p>(n) = E(2n+p), _o<p>(n) = O(2n+p).
_f_products = lambda s: 2 * (s[-1] + s[-2]) - s[-3]  # both obey a(k) = 2a(k-1) + 2a(k-2) - a(k-3)
_thm4_prefix = _Stepper(2, (0,), lambda n, s: s[-1] + tet(n - 4))
_thm5_tail = _Stepper(3, (13,), lambda n, s: 2 * (s[-1] + tet(2 * n - 4)) + 5 * tet(2 * n - 5))
_thm6_sum = _Stepper(0, (0, 1), lambda n, s: s[-1] + s[-2] + tet(2 * n - 1) + tet(2 * n - 3))
_thm7_sum = _Stepper(0, (0, 0, 0), lambda n, s: s[-1] + s[-2] + tet(n - 3) + tet(n - 4))
_e0 = _Stepper(0, (0, 1, 3), lambda n, s: _f_products(s) + tet(2 * n - 2) - tet(2 * n - 4))
_e1 = _Stepper(0, (0, 1, 5), lambda n, s: _f_products(s) + tet(2 * n - 1) - tet(2 * n - 3))
_o0 = _Stepper(0, (0, 0, 1), lambda n, s: _f_products(s) + tet(2 * n - 3))
_o1 = _Stepper(0, (0, 1, 4), lambda n, s: _f_products(s) + tet(2 * n - 2))

# strip_model's class names; closed mode does not load it
_INCLINED = ("right-inclined", "left-inclined")


def _first_tile(id, statement, n_lo, strip_length, absent, classes, rhs, groups,
                provenance=PAPER_STATED) -> IdentityDescriptor:
    """T(L) - absent(n) = rhs(n), L = strip_length(n): the tilings holding a tile of
    `classes`, grouped by their first such tile.  `absent(n)` counts the tilings that
    hold none; `groups(n)` maps each first-tile location to its closed-form count."""
    return IdentityDescriptor(
        id, statement, n_lo, provenance, strip_length,
        lambda n: tet(strip_length(n)) - absent(n), rhs,
        _partition_oracle(strip_length, classes),
        lambda n: {ABSENT: absent(n), **groups(n)},
    )


def _lemma(id, statement, preset, strip_length, rhs) -> IdentityDescriptor:
    """closed_count(preset, strip_length(n)) = rhs(n), for every n >= 0."""
    return IdentityDescriptor(
        id, statement, 0, PAPER_STATED, strip_length,
        lambda n: closed_count(preset, strip_length(n)), rhs,
        _count_oracle(strip_length, preset),
    )


def _build_registry() -> tuple[IdentityDescriptor, ...]:
    even = lambda n: 2 * n
    odd = lambda n: 2 * n + 1
    same = lambda n: n
    thm5 = _first_tile(
        "thm5_corrected",
        "T(2n) - 2^n = 2 T(2n-3) + sum 2^i T(2n-2i-2) + 5 sum 2^i T(2n-2i-5)",
        3, even, pow2, ("horizontal", "left-inclined"),
        lambda n: 2 * tet(2 * n - 3) + _thm5_tail(n), _thm5_expected, CORRECTED_VARIANT,
    )
    thm8c = _first_tile(
        "thm8c_corrected",
        "T(2n+1) - f(n) f(n+1) = sum f(i-1)^2 T(2n-2i+1) + sum f(i-1) f(i) T(2n-2i)",
        2, odd, lambda n: fib(n) * fib(n + 1), _INCLINED,
        lambda n: _e1(n) + _o1(n),
        lambda n: _first_inclined_expected(2 * n + 1), CORRECTED_VARIANT,
    )
    return (
        IdentityDescriptor(
            "thm1", "T(n) = T(n-1) + T(n-2) + T(n-3) + T(n-4)", 4, PAPER_STATED, same,
            tet, lambda n: tet(n - 1) + tet(n - 2) + tet(n - 3) + tet(n - 4),
            _thm1_oracle, _thm1_expected,
        ),
        IdentityDescriptor(
            "thm2_num", "2 T(n-1) = T(n) + T(n-5)", 6, PAPER_STATED, same,
            lambda n: 2 * tet(n - 1), lambda n: tet(n) + tet(n - 5),
            _thm2_oracle, _thm2_expected,
        ),
        IdentityDescriptor(
            "thm3", "T(2n) = T(n)^2 + T(n-1)^2 + T(n-2)^2 + 2 T(n-1) (T(n-2) + T(n-3))",
            4, PAPER_STATED, even, lambda n: tet(2 * n),
            lambda n: tet(n) ** 2 + tet(n - 1) ** 2 + tet(n - 2) ** 2
            + 2 * tet(n - 1) * (tet(n - 2) + tet(n - 3)),
            _thm3_oracle, thm3_expected_histogram,
        ),
        _first_tile(
            "thm4", "T(n) - 1 = T(n-2) + 2 T(n-3) + 3 (T(n-4) + ... + T(1) + T(0))",
            5, same, lambda n: 1, (*_INCLINED, "horizontal"),
            lambda n: tet(n - 2) + 2 * tet(n - 3) + 3 * _thm4_prefix(n), _thm4_expected,
        ),
        _lemma(
            "lemma1", "squares-and-right-inclined tilings of the 2n-strip = 2^n",
            "squares-right", even, pow2,
        ),
        thm5._replace(
            id="thm5_printed",
            statement="T(2n) - 2^n = 2 T(n-3) + sum 2^i T(2n-2i-2) + 5 sum 2^i T(2n-2i-5)",
            provenance=PAPER_STATED, rhs=lambda n: 2 * tet(n - 3) + _thm5_tail(n),
            partition_expected=None,
        ),
        thm5,
        _lemma("lemma2", "horizontal-free tilings of the n-strip = f(n)",
               "no-horizontal", same, fib),
        _lemma("lemma3", "all-domino tilings of the 2n-strip = f(n)",
               "no-squares", even, fib),
        _first_tile(
            "thm6", "T(2n) - f(n) = sum_{i=1..n} T(2n+1-2i) f(i)",
            3, even, fib, ("square",), _thm6_sum, _thm6_expected,
        ),
        _first_tile(
            "thm7", "T(n) - f(n) = sum_{i=1..n-2} f(i) T(n-i-2)",
            5, same, fib, ("horizontal",), _thm7_sum, _thm7_expected,
        ),
        _first_tile(
            "thm8", "T(2n) - f(n)^2 = sum f(i-1)^2 T(2n-2i) + sum f(i-2) f(i-1) T(2n-2i+1)",
            3, even, lambda n: fib(n) ** 2, _INCLINED,
            lambda n: _e0(n) + _o0(n), lambda n: _first_inclined_expected(2 * n),
        ),
        thm8c._replace(
            id="thm8c_printed",
            statement="T(2n+1) - f(n) f(n+1) = sum f(i-1)^2 T(2n-2i+1) + sum f(i-1) f(i) T(2n-2i+2)",
            provenance=PAPER_STATED,
            # even j against T(2n+1-j), odd j = 3..2n+1 against T(2n+3-j)
            rhs=lambda n: _e1(n) + _o1(n + 1) - fib(n) * fib(n + 1),
            partition_expected=None,
        ),
        thm8c,
    )


_REGISTRY = _build_registry()
_BY_ID = {descriptor.id: descriptor for descriptor in _REGISTRY}


def list_identities() -> tuple[IdentityDescriptor, ...]:
    """All registered identities, in registry order."""
    return _REGISTRY


def get_identity(identity_id: str) -> IdentityDescriptor:
    try:
        return _BY_ID[identity_id]
    except KeyError:
        known = ", ".join(sorted(_BY_ID))
        raise ValueError(f"unknown identity {identity_id!r}; known: {known}") from None


def evaluate(identity_id: str, n: int) -> tuple[int, int]:
    """Exact (lhs, rhs) for an identity at n; n must lie in the stated range."""
    descriptor = get_identity(identity_id)
    descriptor.check_range(n, n, "closed")
    return descriptor.lhs(n), descriptor.rhs(n)


def _group_checks(
    expected: dict[str, int], observed: dict[str, int]
) -> tuple[GroupCheck, ...]:
    checks = [GroupCheck(key, want, observed.get(key, 0)) for key, want in expected.items()]
    for key in sorted(set(observed) - set(expected)):
        checks.append(GroupCheck(key, 0, observed[key]))
    return tuple(checks)


def verify_range(identity_id: str, lo: int, hi: int, mode: str = "closed") -> VerificationReport:
    """Verify an identity for every n in [lo, hi], one `IdentityDescriptor.record` each.

    The range must lie inside the identity's stated range; oracle mode must
    also fit the cap.
    """
    descriptor = get_identity(identity_id)
    records = tuple(descriptor.record(n, mode) for n in descriptor.check_range(lo, hi, mode))
    return VerificationReport(id=descriptor.id, mode=mode, records=records)
