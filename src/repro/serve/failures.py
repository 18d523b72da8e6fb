"""The chip failure lifecycle: what physically happens to the fleet.

Production fleets lose chips mid-flight.  This module models *when and
how* — the serving-side machinery that detects and survives it lives in
:mod:`repro.serve.resilience`, and the fleet event loop that weaves the
two together in :mod:`repro.serve.fleet`.

Three failure modes, per chip:

``fail-stop``
    The chip dies outright: every launch in flight at the failure
    instant is killed, launches dispatched while it is down burn nothing
    and complete never, and after an exponentially-distributed repair
    time the chip comes back cold (the resilience layer decides when to
    trust it again).

``fail-slow``
    A straggler window: the chip keeps completing work, but every cycle
    it spends (reload, dispatch handshake, kernel) is stretched by
    ``fail_slow_factor``.  This is the tail-latency killer that hedged
    requests defend against — the batch *will* finish, just too late.

``transient``
    A degradation window during which the chip serves from the
    *degraded* (fault-injected, ECC-correcting) column of the measured
    cost table — the :mod:`repro.faults` composition, switched on and
    off over time instead of statically per chip.

On top of the independent per-chip modes, **correlated failure
domains** model the dominant real-world outage shape: a zone or rack
going dark at once.  A domain is a grouping of chip ids; one seeded
*domain outage* window applies to every member chip simultaneously —
as a shared fail-stop downtime (``domain_mode="fail-stop"``) or a
shared straggler window (``"fail-slow"``).  Domain windows are drawn
per *domain* (not per chip), so members fail together in one event.

Determinism follows the :mod:`repro.faults` discipline exactly: every
``(chip, mode)`` pair draws its windows from its own
``numpy`` Generator seeded by :func:`repro.faults.injector.stream_seed`
(BLAKE2b over ``(seed, mode, chip)``), windows are generated lazily in
time order, and enabling one mode never shifts another's stream.
Domain streams are keyed ``(seed, "domain", index)`` and are equally
independent: adding a domain never shifts any per-chip stream.  A
fixed :class:`FailureConfig` therefore maps to exactly one failure
schedule on every machine, serial or parallel.

Tests script exact lifecycles by passing explicit windows to
:func:`scripted_timeline` instead of drawing them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields

from repro.errors import ConfigError
from repro.knobs import check_knobs, chip_ids, choice, count, number
from repro.faults.injector import stream_seed

FAILURE_KINDS = ("fail-stop", "fail-slow", "transient")


@dataclass(frozen=True)
class FailureConfig:
    """Seeded specification of the fleet's failure lifecycle.

    All times are PE clock cycles.  A mode is active on the chips listed
    in its ``*_chips`` tuple; with every tuple empty the config is
    disabled, and the fleet runs over an empty timeline that never
    fails a chip.
    """

    #: Base seed; every per-chip per-mode stream derives from it.
    seed: int = count(0)

    #: Chips subject to fail-stop events.
    fail_stop_chips: tuple = ()
    #: Mean cycles between fail-stop events (exponential gaps).
    fail_stop_mtbf_cycles: float = number(3_000_000.0, above=0)
    #: Mean repair (downtime) duration per fail-stop event.
    repair_mean_cycles: float = number(800_000.0, above=0)

    #: Chips subject to fail-slow (straggler) windows.
    fail_slow_chips: tuple = ()
    fail_slow_mtbf_cycles: float = number(2_000_000.0, above=0)
    fail_slow_duration_cycles: float = number(500_000.0, above=0)
    #: Service-time multiplier inside a fail-slow window.
    fail_slow_factor: float = number(4.0, min=1.0)

    #: Chips subject to transient-degradation windows (degraded cost
    #: column — the repro.faults ECC-correcting service times).
    transient_chips: tuple = ()
    transient_mtbf_cycles: float = number(2_000_000.0, above=0)
    transient_duration_cycles: float = number(400_000.0, above=0)

    #: Correlated failure domains: each entry is a tuple of member chip
    #: ids (a zone/rack).  One seeded outage window per domain applies
    #: to every member chip at once.
    domains: tuple = ()
    #: Mean cycles between outages of one domain (exponential gaps).
    domain_mtbf_cycles: float = number(5_000_000.0, above=0)
    #: Mean outage duration per domain event.
    domain_repair_mean_cycles: float = number(600_000.0, above=0)
    #: What a domain outage does to member chips: ``"fail-stop"`` (the
    #: zone goes dark) or ``"fail-slow"`` (the zone browns out).
    domain_mode: str = choice("fail-stop", ("fail-stop", "fail-slow"))
    #: Service multiplier inside a fail-slow domain outage.
    domain_slow_factor: float = number(4.0, min=1.0)

    def __post_init__(self):
        check_knobs(self, "failures")
        for f in ("fail_stop_chips", "fail_slow_chips", "transient_chips"):
            chips = chip_ids(getattr(self, f), f"failures.{f}")
            if any(c < 0 for c in chips):
                raise ConfigError(f"failures.{f}: contains a negative "
                                  f"chip id")
            object.__setattr__(self, f, chips)
        domains = []
        for i, members in enumerate(self.domains):
            if not isinstance(members, tuple) or not members:
                raise ConfigError(f"failures.domains[{i}]: must be a "
                                  f"non-empty tuple of chip ids")
            members = chip_ids(members, f"failures.domains[{i}]")
            if any(c < 0 for c in members):
                raise ConfigError(f"failures.domains[{i}]: contains an "
                                  f"invalid chip id")
            domains.append(members)
        object.__setattr__(self, "domains", tuple(domains))

    @property
    def enabled(self) -> bool:
        """True when at least one chip is subject to at least one mode."""
        return bool(self.fail_stop_chips or self.fail_slow_chips
                    or self.transient_chips or self.domains)

    def validate_chips(self, chips: int) -> None:
        for f in ("fail_stop_chips", "fail_slow_chips", "transient_chips"):
            bad = [c for c in getattr(self, f) if not 0 <= c < chips]
            if bad:
                raise ConfigError(f"failures.{f}: out of range for "
                                  f"{chips} chips: {bad}")
        for i, members in enumerate(self.domains):
            bad = [c for c in members if not 0 <= c < chips]
            if bad:
                raise ConfigError(
                    f"failures.domains[{i}]: out of range for {chips} "
                    f"chips: {bad}")

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "domains":
                out[f.name] = [list(members) for members in value]
            else:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class FailureWindow:
    """One failure episode on one chip: ``[start, end)``."""

    kind: str  # one of FAILURE_KINDS
    start: float
    end: float
    #: Service multiplier (fail-slow windows; 1.0 otherwise).
    factor: float = 1.0


class _Stream:
    """One failure stream — a ``(chip, mode)`` pair or a domain — with
    its windows in start order and a bisect index over them.

    ``starts[i]`` is ``windows[i].start`` and ``reach[i]`` the latest
    end among ``windows[:i + 1]``; both grow with ``windows``.  Drawn
    windows never overlap, scripted ones may.  Among the windows
    starting at or before ``t``, the first one still open at ``t`` is
    the first whose ``reach`` passes ``t``, so a query costs two
    bisections however long the stream grows.
    """

    __slots__ = ("windows", "starts", "reach", "covered", "rng", "seed",
                 "kind", "mtbf", "mean_duration", "factor")

    def __init__(self, seed: int | None = None, kind: str = "",
                 mtbf: float = 0.0, mean_duration: float = 0.0,
                 factor: float = 1.0):
        self.windows: list[FailureWindow] = []
        self.starts: list[float] = []
        self.reach: list[float] = []
        #: Every window starting at or before this time has been
        #: generated (a stream without a seed never draws).
        self.covered = 0.0 if seed is not None else math.inf
        self.rng = None
        self.seed = seed
        self.kind = kind
        self.mtbf = mtbf
        self.mean_duration = mean_duration
        self.factor = factor

    def append(self, w: FailureWindow) -> None:
        reach = self.reach
        self.windows.append(w)
        self.starts.append(w.start)
        reach.append(max(reach[-1], w.end) if reach else w.end)

    def extend(self, t: float) -> None:
        """Draw windows in time order until one starts after ``t``."""
        if self.seed is None:
            return
        rng = self.rng
        if rng is None:
            import numpy as np
            rng = self.rng = np.random.default_rng(self.seed)
        windows = self.windows
        covered = self.covered
        while covered <= t:
            gap = float(rng.exponential(self.mtbf))
            duration = float(rng.exponential(self.mean_duration))
            start = (windows[-1].end if windows else 0.0) + gap
            self.append(FailureWindow(kind=self.kind, start=start,
                                      end=start + duration,
                                      factor=self.factor))
            covered = start
        self.covered = covered

    def at(self, t: float) -> FailureWindow | None:
        """The first window in start order with ``start <= t < end``."""
        hi = bisect_right(self.starts, t)
        j = bisect_right(self.reach, t, 0, hi)
        return self.windows[j] if j < hi else None

    def covering(self, t: float) -> list[FailureWindow]:
        """Every window with ``start <= t < end``, in start order."""
        hi = bisect_right(self.starts, t)
        j = bisect_right(self.reach, t, 0, hi)
        return [w for w in self.windows[j:hi] if t < w.end]

    def first_start_in(self, t0: float, t1: float) -> FailureWindow | None:
        """The first window starting inside ``(t0, t1)``."""
        i = bisect_right(self.starts, t0)
        if i < len(self.starts) and self.starts[i] < t1:
            return self.windows[i]
        return None

    @property
    def live(self) -> bool:
        """Can this stream ever return a window?  A seeded stream draws
        forever; an unseeded one holds exactly its scripted windows."""
        return self.seed is not None or bool(self.windows)


class ChipFailureTimeline:
    """The physical failure schedule of every chip, generated lazily.

    Windows per ``(chip, mode)`` are drawn in time order from that
    pair's own seeded stream, so any query order produces the same
    schedule.  The timeline is the *ground truth* the event loop
    consults; the scheduler only ever learns about it through health
    checks and failed launches (:mod:`repro.serve.resilience`).
    """

    def __init__(self, config: FailureConfig, chips: int):
        config.validate_chips(chips)
        self.config = config
        self.chips = chips
        #: (chip, kind) -> that pair's stream, created on first query.
        self._streams: dict[tuple[int, str], _Stream] = {}
        factor = (config.domain_slow_factor
                  if config.domain_mode == "fail-slow" else 1.0)
        #: domain index -> its outage stream, shared by every member.
        self._domain_streams = [
            _Stream(stream_seed(config.seed, "serve-fail", "domain", idx),
                    config.domain_mode, config.domain_mtbf_cycles,
                    config.domain_repair_mean_cycles, factor)
            for idx in range(len(config.domains))
        ]
        #: chip id -> indices of the domains it belongs to.
        self._chip_domains: dict[int, tuple[int, ...]] = {}
        for i, members in enumerate(config.domains):
            for c in members:
                self._chip_domains[c] = self._chip_domains.get(c, ()) + (i,)
        #: kind -> the chips a window of that kind can ever cover.
        self._exposed: dict[str, frozenset] = {}

    # -- generation ----------------------------------------------------

    def _params(self, kind: str) -> tuple[tuple, float, float, float]:
        cfg = self.config
        if kind == "fail-stop":
            return (cfg.fail_stop_chips, cfg.fail_stop_mtbf_cycles,
                    cfg.repair_mean_cycles, 1.0)
        if kind == "fail-slow":
            return (cfg.fail_slow_chips, cfg.fail_slow_mtbf_cycles,
                    cfg.fail_slow_duration_cycles, cfg.fail_slow_factor)
        return (cfg.transient_chips, cfg.transient_mtbf_cycles,
                cfg.transient_duration_cycles, 1.0)

    def _ensure(self, chip: int, kind: str, t: float) -> _Stream:
        """``(chip, kind)``'s stream, generated until coverage passes
        ``t``."""
        stream = self._streams.get((chip, kind))
        if stream is None:
            chips, mtbf, mean_duration, factor = self._params(kind)
            if chip in chips:
                stream = _Stream(
                    stream_seed(self.config.seed, "serve-fail", kind, chip),
                    kind, mtbf, mean_duration, factor)
            else:
                stream = _Stream()
            self._streams[(chip, kind)] = stream
        if stream.covered <= t:
            stream.extend(t)
        return stream

    def _ensure_domain(self, idx: int, t: float) -> _Stream:
        """Domain ``idx``'s outage stream, generated until coverage
        passes ``t``.  One stream per domain: members share windows."""
        stream = self._domain_streams[idx]
        if stream.covered <= t:
            stream.extend(t)
        return stream

    # -- queries (ground truth) ----------------------------------------

    def _window_at(self, chip: int, kind: str, t: float) -> FailureWindow | None:
        w = self._ensure(chip, kind, t).at(t)
        if w is None and self.config.domain_mode == kind:
            for idx in self._chip_domains.get(chip, ()):
                w = self._ensure_domain(idx, t).at(t)
                if w is not None:
                    break
        return w

    def down_at(self, chip: int, t: float) -> FailureWindow | None:
        """The fail-stop downtime window containing ``t``, if any
        (the chip's own or a containing domain's outage)."""
        return self._window_at(chip, "fail-stop", t)

    def fail_stop_in(self, chip: int, t0: float, t1: float) -> FailureWindow | None:
        """The fail-stop window that kills work running over ``[t0, t1)``:
        the downtime containing ``t0`` (launch into a dead chip) or the
        first one starting inside the span — own or domain outage."""
        down = self.down_at(chip, t0)
        if down is not None:
            return down
        first = self._ensure(chip, "fail-stop", t1).first_start_in(t0, t1)
        if self.config.domain_mode == "fail-stop":
            for idx in self._chip_domains.get(chip, ()):
                w = self._ensure_domain(idx, t1).first_start_in(t0, t1)
                if w is not None and (first is None or w.start < first.start):
                    first = w
        return first

    def next_fail_stop_start(self, chip: int, t: float) -> float:
        """The earliest start after ``t`` of a fail-stop window, the
        chip's own or a fail-stop domain's; ``inf`` when none can come.
        One bisection per stream.  A chip up at ``t`` stays up until
        then: a window covering a later time either starts after ``t``
        or would cover ``t`` too."""
        streams = [self._ensure(chip, "fail-stop", t)]
        if self.config.domain_mode == "fail-stop":
            streams += [self._ensure_domain(idx, t)
                        for idx in self._chip_domains.get(chip, ())]
        first = math.inf
        for stream in streams:
            w = stream.first_start_in(t, first)
            if w is not None:
                first = w.start
        return first

    def slow_factor_at(self, chip: int, t: float) -> float:
        """Service-time multiplier at ``t`` (1.0 when healthy).  The
        worst window covering ``t`` applies, among the chip's own
        straggler windows and any fail-slow domain outage."""
        covering = self._ensure(chip, "fail-slow", t).covering(t)
        if self.config.domain_mode == "fail-slow":
            for idx in self._chip_domains.get(chip, ()):
                covering += self._ensure_domain(idx, t).covering(t)
        return max((w.factor for w in covering), default=1.0)

    def exposed(self, kind: str) -> frozenset:
        """The chips a ``kind`` window can ever cover: those with a
        seeded or non-empty scripted stream of that kind, or in a domain
        whose outages are of that kind.  Queries for any other chip
        answer "healthy" without looking, so callers skip them.  Decided
        once, on first use (after :func:`scripted_timeline` has
        installed its windows)."""
        chips = self._exposed.get(kind)
        if chips is None:
            # Ensuring up to -inf creates a missing stream but draws
            # nothing.
            reach = {c for c in range(self.chips)
                     if self._ensure(c, kind, -math.inf).live}
            if self.config.domain_mode == kind:
                for stream, members in zip(self._domain_streams,
                                           self.config.domains):
                    if stream.live:
                        reach.update(members)
            chips = self._exposed[kind] = frozenset(reach)
        return chips

    # -- domain ground truth (chaos invariants, reporting) -------------

    def domains_of(self, chip: int) -> tuple[int, ...]:
        """Indices of the failure domains containing ``chip``."""
        return self._chip_domains.get(chip, ())

    def domain_outage_at(self, chip: int, t: float) -> FailureWindow | None:
        """The domain outage window covering ``chip`` at ``t``, if any
        (regardless of domain mode)."""
        for idx in self._chip_domains.get(chip, ()):
            w = self._ensure_domain(idx, t).at(t)
            if w is not None:
                return w
        return None

    def domain_windows_until(self, idx: int, t: float) -> list[FailureWindow]:
        """Every outage window of domain ``idx`` starting at or before
        ``t`` (ground truth for invariant sweeps)."""
        stream = self._ensure_domain(idx, t)
        return stream.windows[:bisect_right(stream.starts, t)]

    def transient_at(self, chip: int, t: float) -> bool:
        """True when the chip serves from the degraded cost column at ``t``."""
        return self._window_at(chip, "transient", t) is not None


def _scripted_stream(windows) -> _Stream:
    """An index over explicit windows, sorted by start (stable, so
    equal starts keep their given order)."""
    for w in windows:
        # NaN compares false against everything, so it would also break
        # the start order the index bisects on.
        if math.isnan(w.start) or math.isnan(w.end) or w.end < w.start:
            raise ConfigError(f"scripted {w.kind} window [{w.start!r}, "
                              f"{w.end!r}) needs start <= end and no NaN")
    stream = _Stream()
    for w in sorted(windows, key=lambda w: w.start):
        stream.append(w)
    return stream


def scripted_timeline(chips: int,
                      windows: dict[int, list[FailureWindow]],
                      domains: tuple = (),
                      domain_windows: dict[int, list[FailureWindow]] | None = None,
                      domain_mode: str = "fail-stop") -> ChipFailureTimeline:
    """A timeline with explicit windows instead of drawn ones (tests).

    ``windows`` maps chip id -> episodes; each chip's list is sorted and
    coverage is marked complete so no random draws ever happen.  When
    ``domains`` is given, ``domain_windows`` maps domain index ->
    scripted outage episodes shared by every member chip.  Windows may
    overlap or be empty; a NaN bound or an ``end`` before ``start`` is a
    config error, and an infinite ``end`` (a chip that never returns) is
    fine.
    """
    config = FailureConfig(domains=domains, domain_mode=domain_mode)
    timeline = ChipFailureTimeline(config, chips)
    for chip in range(chips):
        per_kind: dict[str, list[FailureWindow]] = {k: [] for k in FAILURE_KINDS}
        for w in windows.get(chip, ()):
            if w.kind not in FAILURE_KINDS:
                raise ConfigError(f"unknown failure kind {w.kind!r}")
            per_kind[w.kind].append(w)
        for kind in FAILURE_KINDS:
            timeline._streams[(chip, kind)] = _scripted_stream(per_kind[kind])
    for idx in range(len(domains)):
        episodes = (domain_windows or {}).get(idx, ())
        for w in episodes:
            if w.kind != domain_mode:
                raise ConfigError(
                    f"domain window kind {w.kind!r} != mode {domain_mode!r}")
        timeline._domain_streams[idx] = _scripted_stream(episodes)
    return timeline
