"""The paper's claims, each checked against the driver that measures it.

One :class:`Claim` per EXPERIMENTS.md claim; each driver runs once and its
digest names the numbers the claims read.  A ``deviates`` claim is a known
deviation whose checks state the paper's shape, so a change that makes it
hold is flagged as surely as one that breaks a ``holds`` claim.  ::

    python -m benchmarks.claims          # run the drivers; write results/*.txt
                                         # and EXPERIMENTS.md's claim lines
    python -m benchmarks.claims --check  # write nothing; exit 1 on an
                                         # unexpected verdict or a stale doc

A line of EXPERIMENTS.md that carries ``<!-- claim: ID -->`` is the claim's:
a table row's last two cells (Measured, Shape) or a deviation's whole item.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from benchmarks.conftest import write_result
from repro._util import MIB, percentile
from repro.analysis import experiments, study
from repro.analysis.tables import render_matrix, render_table
from repro.memory.fingerprint import FingerprintConfig
from repro.memory.redundancy import measure_redundancy
from repro.platform.metrics import StartType
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC = ROOT / "EXPERIMENTS.md"
MARK = re.compile(r"<!-- claim: ([\w.]+) -->")
SCALE = 1.0 / 64.0
FIXED, ADAPTIVE = "fixed-ka-10min", "adaptive-ka"
SUITE = FunctionBenchSuite.default()
#: The paper's Table 2 (exec ms, memory MB) and Table 3 (% saved).
PAPER_TABLE2 = {
    "Vanilla": (150, 17.0), "LinAlg": (250, 32.0), "ImagePro": (1200, 26.4),
    "VideoPro": (2000, 48.0), "MapReduce": (500, 32.0), "HTMLServe": (400, 22.3),
    "AuthEnc": (400, 22.3), "FeatureGen": (1000, 66.0), "RNNModel": (1000, 90.0),
    "ModelTrain": (3000, 87.5),
}
PAPER_SAVINGS = {
    "Vanilla": 27.06, "LinAlg": 32.81, "ImagePro": 43.03, "VideoPro": 25.46, "MapReduce": 15.94,
    "HTMLServe": 44.30, "AuthEnc": 21.48, "FeatureGen": 38.89, "RNNModel": 58.03,
    "ModelTrain": 30.09,
}


def _span(values, fmt: str = ".2f") -> str:
    values = list(values)
    return f"{min(values):{fmt}}-{max(values):{fmt}}"


class _Series(list):
    """Compared as a list, formatted as ``a/b/c``."""

    def __format__(self, spec: str) -> str:
        return "/".join(format(v, spec) for v in self)


# ------------------------------------------------- drivers and their digests


def _fig1() -> SimpleNamespace:
    linalg = [SUITE.get("LinAlg").synthesize(seed, content_scale=SCALE) for seed in (900, 901)]
    return SimpleNamespace(
        plain=study.same_function_redundancy(SUITE, aslr=False, content_scale=SCALE),
        aslr=study.same_function_redundancy(SUITE, aslr=True, content_scale=SCALE),
        matrix=study.cross_function_matrix(SUITE, content_scale=SCALE),
        pair=measure_redundancy(linalg[1], linalg[0], 64).redundancy,
    )


def _fig1_digest(r) -> dict:
    plain, aslr = r.plain, r.aslr
    cross = {(a, b): v for (a, b), v in r.matrix.items() if a != b}
    rows = {f: np.mean([v for (a, _), v in cross.items() if a == f]) for f in plain}
    return dict(
        r64=_span(b[64] for b in plain.values()), r1024=_span(b[1024] for b in plain.values()),
        min64=min(b[64] for b in plain.values()), linalg_pair=r.pair,
        all_decay=all(b[1024] < b[64] for b in plain.values()),
        drops=_span((1 - aslr[f][64] / plain[f][64] for f in plain), ".0%"),
        max_drop=max(plain[f][64] - aslr[f][64] for f in plain),
        linalg=f"{plain['LinAlg'][64]:.3f}→{aslr['LinAlg'][64]:.3f}",
        min_pair=min(r.matrix.values()), cross=_span(cross.values()), min_cross=min(cross.values()),
        lowest=", ".join(sorted(rows, key=rows.get)[:3]),
    )


def _fig2() -> list:
    trace = AzureTraceGenerator(seed=2).generate(30, SUITE.names())
    savings = study.measure_function_savings(SUITE, content_scale=SCALE)
    return study.savings_timeline(trace, SUITE, savings=savings)


def _fig2_digest(points) -> dict:
    saved = [1 - p.after_dedup_mb / p.keep_alive_mb for p in points if p.keep_alive_mb > 0]
    return dict(mean=np.mean(saved), band=_span(saved, ".0%"), samples=len(saved))


def _table2_digest(suite) -> dict:
    rows = {p.name: (p.exec_time_ms, p.memory_mb) for p in suite}
    return dict(profiles_are_the_papers=rows == PAPER_TABLE2,
                exec_ms=_span((v[0] for v in rows.values()), ".0f"),
                memory_mb=_span((v[1] for v in rows.values()), "g"))


def _table3() -> dict:
    micro = study.per_function_microbench(SUITE, content_scale=SCALE, seed=5)
    linalg = FunctionBenchSuite.subset(["LinAlg"])
    again = study.per_function_microbench(linalg, content_scale=SCALE, seed=6, verify=False)
    return {**{n: m.savings_fraction for n, m in micro.items()},
            "LinAlg@6": again["LinAlg"].savings_fraction}


def _table3_digest(r) -> dict:
    saved = {n: r[n] for n in SUITE.names()}
    mb = {n: f * SUITE.get(n).memory_mb for n, f in saved.items()}
    return dict(band=_span(saved.values(), ".0%"), lo=min(saved.values()), hi=max(saved.values()),
                top=max(mb, key=mb.get), top_mb=max(mb.values()), linalg_seed6=r["LinAlg@6"],
                mapreduce=sorted(saved.values()).index(saved["MapReduce"]) + 1)


def _comparison_digest(c) -> dict:
    medes, fixed = c.metrics(c.medes_name()), c.metrics(FIXED)
    memory = {name: mean for name, mean, _ in c.memory_table()}
    names = (c.medes_name(), FIXED, ADAPTIVE)
    cold, fixed_cold, adaptive = (c.metrics(name).cold_starts() for name in names)
    tails = [(fn, medes.e2e_percentile(99.9, fn), fixed.e2e_percentile(99.9, fn))
             for fn in c.trace.functions()]
    tails = [t for t in tails if not (np.isnan(t[1]) or np.isnan(t[2]))]
    return dict(
        medes=cold, fixed=fixed_cold, adaptive=adaptive, cut=1 - cold / fixed_cold,
        excess=adaptive / cold - 1, dedup_starts=medes.start_counts()[StartType.DEDUP],
        mem=memory[c.medes_name()], mem_fixed=memory[FIXED], mem_adaptive=memory[ADAPTIVE],
        p999=medes.e2e_percentile(99.9), p999_fixed=fixed.e2e_percentile(99.9),
        improve=sum(m < f for _, m, f in tails), regress=sum(m > f for _, m, f in tails),
        wins=sum(m <= f for _, m, f in tails), functions=len(tails),
        max_tail_ratio=max(m / f for _, m, f in tails),
    )


def _fig7_digest(r) -> dict:
    vs_fixed, vs_adaptive = r.improvement_vs_fixed, r.improvement_vs_adaptive
    comparison = r.comparison
    medes = comparison.metrics(comparison.medes_name())
    return dict(
        _comparison_digest(comparison), median=np.median(vs_fixed),
        p95=f"{percentile(vs_fixed, 95):.2f}x/{percentile(vs_adaptive, 95):.2f}x",
        p99_fixed=percentile(vs_fixed, 99), p99_adaptive=percentile(vs_adaptive, 99),
        slower=np.mean(np.array(vs_fixed) < 1),
        one_factor_a_request=len(vs_fixed) == len(medes.requests),
        share=medes.dedup_share(), extra_fixed=comparison.extra_sandboxes_vs(FIXED),
        extra_adaptive=comparison.extra_sandboxes_vs(ADAPTIVE),
    )


def _fig8_digest(r) -> dict:
    restore = {fn: read + compute + fixed for fn, _, read, compute, fixed, _ in r.rows}
    cold = {row[0]: row[1] for row in r.rows}
    return dict(restore=_span(restore.values(), ".0f"), cold=_span(cold.values(), ".0f"),
                ratio=_span((cold[f] / restore[f] for f in cold), ".0f"),
                max_restore_over_cold=max(restore[f] / cold[f] for f in cold),
                dedup_ms=[row[5] for row in r.rows],
                slowest=max(restore, key=restore.get), slowest_ms=max(restore.values()))


def _leaders(comparison) -> list[str]:
    """The three environments whose cold starts Medes cuts most vs fixed."""
    cuts: dict[str, int] = {}
    for name, sign in ((FIXED, 1), (comparison.medes_name(), -1)):
        for fn, count in comparison.metrics(name).cold_starts_by_function().items():
            cuts[fn.split("~")[0]] = cuts.get(fn.split("~")[0], 0) + sign * count
    return sorted(cuts, key=cuts.get, reverse=True)[:3]


def _pressure_digest(r) -> dict:
    comps = [r.comparisons[label] for label in r.pool_labels]
    digests = [_comparison_digest(c) for c in comps]
    heavy = {p.name for p in SUITE if p.memory_mb >= 48}
    return dict(
        digests[-1], gains=_Series(d["cut"] for d in digests), tight=r.pool_labels[-1],
        medes_all=_Series(d["medes"] for d in digests),
        fixed_all=_Series(d["fixed"] for d in digests),
        beats_both_at_every_pool=all(d["medes"] < min(d["fixed"], d["adaptive"]) for d in digests),
        none_fewer_at_tightest=all(
            comps[0].metrics(n).cold_starts() <= comps[-1].metrics(n).cold_starts()
            for n in comps[-1].names),
        leaders="; ".join(f"{label}: {', '.join(_leaders(c))}"
                          for label, c in zip(r.pool_labels[1:], comps[1:])),
        min_heavy_in_top3=min(len(heavy.intersection(_leaders(c))) for c in comps[1:]),
    )


def _sweep_digest(r, reference: str) -> dict:
    """A cold-start sweep against its ``reference`` entry (Figs 12, 13, 15)."""
    rest = _Series(v for k, v in r.cold_starts.items() if k != reference)
    by_name = {re.sub(r"\W+", "_", k.lower()): v for k, v in r.cold_starts.items()}
    return dict(by_name, ref=r.cold_starts[reference], sweep=rest, best=min(rest), worst=max(rest))


def _fig16_digest(r) -> dict:
    """Series by cardinality 5/10/20."""
    return dict(saved=_Series(r.savings_mb.values()), restores=_Series(r.restore_ms.values()),
                colds=_Series(r.cold_starts.values()),
                slowdown=_Series(percentile(v, 99) for v in r.slowdowns.values()))


def _sec77_digest(r) -> dict:
    ms = r.dedup_duration_ms
    return dict(vanilla=ms["Vanilla"] / 1000, modeltrain=ms["ModelTrain"] / 1000,
                longest=max(ms, key=ms.get), longest_s=max(ms.values()) / 1000,
                op_ms=list(ms.values()), lookups=_span(r.lookup_ms.values(), ".0f"),
                lookup_modeltrain_over_vanilla=r.lookup_ms["ModelTrain"] / r.lookup_ms["Vanilla"],
                share=r.agent_metadata_share, registry_mb=r.registry_bytes / MIB,
                digests=r.registry_digests)


def _aslr() -> dict:
    """Mean saved MB a sandbox, keyed ``aslr_<on|off>_<cardinality>``."""

    def saved_mb(aslr: bool, cardinality: int) -> float:
        fingerprint = FingerprintConfig(cardinality=cardinality)
        savings = study.measure_function_savings(
            SUITE, content_scale=SCALE, aslr=aslr, fingerprint=fingerprint)
        return np.mean([m.saved_mb for m in savings.values()])

    return {f"aslr_{'on' if aslr else 'off'}_{c}": saved_mb(aslr, c)
            for aslr in (False, True) for c in (5, 20)}


def _scalability() -> dict:
    """The cluster-scale snapshot (a ~10-minute run); it names no sha, `97df46a` wrote it."""
    snapshot = json.loads((ROOT / "BENCH_scalability.json").read_text())
    points = snapshot["points"]
    return dict(stamp=f"`BENCH_scalability.json`, {snapshot['date']}, `97df46a`",
                **{key: _Series(p[key] for p in points) for key in points[0]})


# ---------------------------------------------------- renderers (results/*.txt)


def _render_fig1(r) -> str:
    return "\n\n".join([
        study.render_redundancy(r.plain, "Fig 1a: same-function redundancy (ASLR disabled)"),
        study.render_redundancy(r.aslr, "Fig 1b: same-function redundancy (ASLR enabled)"),
        render_matrix(SUITE.names(), r.matrix, title="Fig 1c: cross-function redundancy @64B"),
    ])


def _render_fig2(points) -> str:
    rows = [(f"{p.time_s:.0f}", f"{p.keep_alive_mb:.0f}", f"{p.after_dedup_mb:.0f}",
             f"{(1 - p.after_dedup_mb / p.keep_alive_mb) * 100 if p.keep_alive_mb else 0:.1f}%")
            for p in points[:: max(1, len(points) // 40)]]
    return render_table(["t (s)", "keep-alive MB", "after dedup MB", "saving"], rows,
                        title="Fig 2: memory savings timeline (30-min Azure-style trace)")


def _render_table3(r) -> str:
    rows = [(p.name, f"{r[p.name] * 100:.1f}%", f"{r[p.name] * p.memory_mb:.1f}MB / "
             f"{p.memory_mb:g}MB", f"{PAPER_SAVINGS[p.name]:.1f}%") for p in SUITE]
    return render_table(["function", "measured savings", "saved / footprint", "paper savings"],
                        rows, title="Table 3: per-function dedup memory savings")


def _render_aslr(grid) -> str:
    rows = [(f"ASLR {key.split('_')[1]}", key.split("_")[2], f"{mb:.1f}")
            for key, mb in grid.items()]
    return render_table(["setting", "cardinality", "mean saved MB/sandbox"], rows,
                        title="ASLR vs dedup savings (Sec 7.2.1 note)")


#: Renderers of the results files; the rest call the result's ``render()``.
RENDER = dict(fig1=_render_fig1, fig2=_render_fig2, table3=_render_table3, aslr=_render_aslr)
#: Driver -> (run once, digest, ``benchmarks/results/`` file or None).
DRIVERS: dict[str, tuple[Callable[[], Any], Callable[[Any], dict], str | None]] = {
    "fig1": (_fig1, _fig1_digest, "fig01_redundancy"),
    "fig2": (_fig2, _fig2_digest, "fig02_savings_timeline"),
    "table2": (FunctionBenchSuite.default, _table2_digest, None),
    "table3": (_table3, _table3_digest, "table3_savings"),
    "fig7": (experiments.run_fig7, _fig7_digest, "fig07_e2e_latency"),
    "fig8": (experiments.run_fig8, _fig8_digest, "fig08_startup_breakdown"),
    "fig9": (experiments.run_fig9, lambda r: dict(
        _comparison_digest(r.comparison), cross=r.cross_function_share), "fig09_memory_usage"),
    "pressure": (experiments.run_pressure, _pressure_digest, "fig10_memory_pressure"),
    "fig12": (experiments.run_fig12, lambda r: _sweep_digest(r, "Medes"), "fig12_keepalive_sweep"),
    "fig13": (experiments.run_fig13, lambda r: _sweep_digest(r, "Emulated Catalyzer"),
              "fig13_catalyzer"),
    "fig14": (experiments.run_fig14, lambda r: {
        **{f"cold{k[:-1]}": v for k, v in r.cold_starts.items()},
        **{f"saved{k[:-1]}": v for k, v in r.metrics.items()}}, "fig14_chunk_size"),
    "fig15": (experiments.run_fig15, lambda r: _sweep_digest(r, "No Dedup"), "fig15_keep_dedup"),
    "fig16": (experiments.run_fig16, _fig16_digest, "fig16_cardinality"),
    "sec77": (experiments.run_overheads, _sec77_digest, "sec77_overheads"),
    "aslr": (_aslr, dict, "aslr_savings"),
    "scalability": (_scalability, dict, None),
}


# ------------------------------------------------------------------ claims


@dataclass(frozen=True)
class Claim:
    """One EXPERIMENTS.md claim.  ``measured`` formats the driver's digest
    (``<driver>_<name>`` over several) into the Measured cell; each check is
    an expression over it, and the claim holds if all are true.  ``shape`` is
    the Shape cell, or a deviation's issue under its title, ``section``."""

    id: str
    section: str
    paper: str
    driver: str | tuple[str, ...]
    measured: str
    checks: tuple[str, ...]
    shape: str
    expected: str = "holds"
    decision: str = ""

    @property
    def drivers(self) -> tuple[str, ...]:
        return (self.driver,) if isinstance(self.driver, str) else self.driver

    def verdict(self, digests: dict[str, dict]) -> tuple[str, list[str]]:
        """(Measured cell, the checks that failed)."""
        many = len(self.drivers) > 1
        digest = {f"{n}_{k}" if many else k: v for n in self.drivers for k, v in digests[n].items()}
        scope = {"__builtins__": {}, "min": min, "max": max, "int": int, **digest}
        return self.measured.format(**digest), [c for c in self.checks if not eval(c, scope)]

    def as_expected(self, failed: list[str]) -> bool:
        return bool(failed) == (self.expected == "deviates")


CLAIMS: tuple[Claim, ...] = (
    # ------------------------------------------------ measurement study (§2)
    Claim("fig1a", "§2, Fig 1a", "~0.85-0.97 @64B falling to ~0.55-0.75 @1024B", "fig1",
          "{r64} @64B falling to {r1024} @1024B",
          ("min64 > 0.75", "all_decay", "linalg_pair > 0.75"),
          "✅ high redundancy, monotone-ish decay with chunk size"),
    Claim("fig1b", "§2, Fig 1b", "~5% drop at 64B", "fig1", "{drops} drop at 64B (LinAlg {linalg})",
          ("max_drop < 0.25",), "⚠️ a drop, not a collapse, but larger than the paper's"),
    Claim("fig1c", "§2, Fig 1c", "0.84-0.90; FeatureGen lowest row", "fig1",
          "{cross}; lowest rows {lowest}", ("min_pair > 0.4",),
          "⚠️ partially — high, but below ~0.88 (deviation 2); FeatureGen is not the lowest row"),
    Claim("fig2", "§2, Fig 2", "up to ~30% savings", "fig2",
          "mean saving {mean:.0%} over the trace ({band} a sample)",
          ("samples > 0", "0.10 < mean < 0.75"), "✅ material double-digit savings throughout"),
    # -------------------------------------------- main evaluation (§7.1-7.4)
    Claim("table2", "§7.1, Table 2", "10 environments' exec ms and memory MB", "table2",
          "exec {exec_ms} ms, memory {memory_mb} MB", ("profiles_are_the_papers",),
          "✅ the paper's inputs"),
    Claim("fig7.cdf", "§7.2, Fig 7a", "median ~1x; 2.25x / 2.75x at the tail; <1% slower", "fig7",
          "median {median:.2f}x; p95 {p95}; p99 {p99_fixed:.2f}x/{p99_adaptive:.2f}x; "
          "{slower:.1%} of requests slower than fixed",
          ("p99_fixed > 1.5", "p99_adaptive > 1.5", "0.8 < median < 1.3", "one_factor_a_request"),
          "⚠️ bulk unaffected, big tail wins; a larger slow head (dedup replacing warm starts)"),
    Claim("fig7.cold_starts", "§7.2, Fig 7b", "10-50% fewer than fixed", "fig7",
          "{cut:.0%} fewer vs fixed ({medes:,} vs {fixed:,}) and vs adaptive ({adaptive:,})",
          ("medes < fixed", "medes < adaptive", "cut > 0.05", "dedup_starts > 0"), "✅"),
    Claim("fig7.tail", "§7.2, Fig 7b", "1-2.24x better vs fixed", "fig7",
          "{improve} of {functions} functions improve, {regress} regress; cluster 99.9p "
          "{p999:,.0f} vs {p999_fixed:,.0f} ms", ("p999 <= 1.1 * p999_fixed", "p999 > 0"),
          "⚠️ the cluster tail matches fixed; per function, big wins and small losses"),
    Claim("sec721", "§7.2.1", "39% deduplicated; +7.74% / +37.7% sandboxes in memory", "fig7",
          "{share:.1%} deduplicated; {extra_fixed:+.1f}% / {extra_adaptive:+.1f}% more sandboxes",
          ("share > 0.05", "extra_adaptive > 0"), "✅ strikingly close"),
    Claim("fig8", "§7.2, Fig 8", "~5-10x faster than cold; restore ~140 ms; RNN-class slowest",
          "fig8", "{restore} ms vs {cold} ms cold ({ratio}x); {slowest} slowest",
          ("max_restore_over_cold < 0.5", "500 < min(dedup_ms) and max(dedup_ms) < 6000",
           "slowest == 'RNNModel'"), "✅ (every restore checked byte-exact)"),
    Claim("table3", "§7.2, Table 3", "16-58%; RNNModel most MB; MapReduce lowest %", "table3",
          "{band}; {top} most ({top_mb:.1f} MB); MapReduce {mapreduce} of 10 from the bottom",
          ("0.15 < lo and hi < 0.85", "top == 'RNNModel'", "mapreduce <= 4", "linalg_seed6 > 0.15"),
          "✅ band and orderings (absolute savings skew high)"),
    Claim("fig9.memory", "§7.3, Fig 9a", "Medes 11.4% under fixed; adaptive lowest", "fig9",
          "Medes {mem:,.0f} vs fixed {mem_fixed:,.0f} MB; adaptive {mem_adaptive:,.0f} MB",
          ("mem < mem_fixed", "p999 <= 1.3 * p999_fixed"),
          "⚠️ ordering reproduces; the margin is smaller (fewer idle sandboxes to dedup at scale)"),
    Claim("fig9.cold_starts", "§7.3, Fig 9b", "adaptive ≥50% more than Medes; Medes ≤ fixed",
          "fig9", "adaptive {adaptive:,} vs Medes {medes:,} ({excess:+.0%}); fixed {fixed:,}",
          ("adaptive > medes", "medes <= fixed"),
          "⚠️ orderings reproduce; adaptive's excess is under the paper's 50%"),
    Claim("sec731", "§7.3.1", "67% of deduped pages matched another function", "fig9",
          "{cross:.0%} of deduped pages matched another function", ("cross > 0.3",), "✅"),
    Claim("fig10a", "§7.4, Fig 10a", "gain vs fixed grows: 22% → 37% → 40.7%", "pressure",
          "{gains:.1%} vs fixed ({medes_all} vs {fixed_all})",
          ("beats_both_at_every_pool", "none_fewer_at_tightest",
           "max(gains[1:]) > gains[0]", "min(gains[1:]) > 0.10"),
          "✅ pressure amplifies the gain (it peaks at the middle pool: deviation 3)"),
    Claim("fig10b", "§7.4, Fig 10b", "biggest wins for memory-heavy functions", "pressure",
          "largest cuts — {leaders}", ("min_heavy_in_top3 >= 2",),
          "✅ mostly (at the tightest pool LinAlg's cut is the largest)"),
    Claim("fig11", "§7.4, Fig 11", "up to 3.8x better; memory-heavy functions gain most",
          "pressure", "{wins} of {functions} functions at or under fixed's 99.9p at {tight}; "
          "cluster 99.9p {p999:,.0f} vs {p999_fixed:,.0f} ms",
          ("max_tail_ratio < 5", "wins >= int(functions * 0.4)", "p999 < 1.15 * p999_fixed"),
          "⚠️ per-function wins reproduce; the cluster-wide tail is queueing-bound in both"),
    # ------------------------------- microbenchmarks and sensitivity (§7.5-7.8)
    Claim("fig12", "§7.5, Fig 12", "KA-20 36% worse than KA-10; Medes 38.2% below the best",
          "fig12", "KA-5/10/15/20 {sweep}; Medes {ref}", ("ref < best", "1 - ref / best > 0.10"),
          "⚠️ Medes beats every KA; the KA-20 degradation does not reproduce (deviation 1)"),
    Claim("fig13", "§7.6, Fig 13", "Medes further cuts cold starts", "fig13",
          "{ref} → {sweep} cold starts", ("best < ref", "1 - best / ref > 0.10"), "✅"),
    Claim("fig14", "§7.8, Fig 14", "64B best; 32B collides; 128B finds less redundancy", "fig14",
          "cold starts {cold32}/{cold64}/{cold128} at 32/64/128B; mean savings {saved32:.1%} "
          "at 32B vs {saved64:.1%} at 64B",
          ("saved32 < saved64", "cold64 <= cold32 * 1.10", "cold64 <= cold128 * 1.10"),
          "✅ 32B mechanism; 128B penalty weak (page-aligned content lacks sub-page shifts)"),
    Claim("fig15", "§7.8, Fig 15", "10-38% fewer than no-dedup; degrades at 20 min", "fig15",
          "no dedup {ref}; keep-dedup 5/10/15/20 min {sweep}",
          ("worst < ref", "1 - best / ref > 0.08"),
          "⚠️ dedup helps; the 20-minute degradation does not reproduce (deviation 1)"),
    Claim("fig16", "§7.8, Fig 16", "savings 28.8/31.5/32.5 MB; restore 378/478/554 ms", "fig16",
          "savings {saved:.1f} MB; restore {restores:.0f} ms; cold starts {colds}; p99 slowdown "
          "{slowdown:.2f} at cardinality 5/10/20",
          ("saved[2] >= saved[0] * 0.95", "restores[2] >= restores[0] * 0.95",
           "colds[0] <= min(colds) * 1.3"),
          "✅ direction on all three axes, magnitudes compressed (deviation 5)"),
    Claim("sec77.duration", "§7.7", "2 s (Vanilla) → 3.3 s (ModelTrain); lookups 130-1850 ms",
          "sec77", "{vanilla:.2f} s (Vanilla) → {modeltrain:.2f} s (ModelTrain), longest {longest} "
          "{longest_s:.2f} s; lookups {lookups} ms",
          ("500 < min(op_ms) and max(op_ms) < 6000", "modeltrain > vanilla",
           "lookup_modeltrain_over_vanilla > 3"), "✅"),
    Claim("sec77.overheads", "§7.7", "agent metadata + bases <10% of node memory", "sec77",
          "agent share {share:.1%}; registry {registry_mb:.1f} MB / {digests:,} digests",
          ("share < 0.20",), "✅"),
    Claim("aslr", "§7.2.1 note", "28.8 → 12.1 MB with ASLR; cardinality recovers it", "aslr",
          "{aslr_off_5:.1f} → {aslr_on_5:.1f} MB a sandbox with ASLR at cardinality 5; "
          "{aslr_on_20:.1f} MB at 20",
          ("aslr_on_5 < aslr_off_5 * 0.99", "aslr_on_20 >= aslr_on_5 + 0.5",
           "aslr_on_20 >= aslr_off_5 * 0.98"),
          "⚠️ both directions reproduce; the drop is far smaller (deviation 4)"),
    Claim("scalability", "§12 (extension)", "—", "scalability",
          "{nodes} nodes replay {completed:,} requests at {req_per_s:,.0f} req/s "
          "({events_per_s:,.0f} events/s), {peak_rss_mb:,.0f} MB peak RSS ({stamp})",
          ("completed == requests",), "✅"),
    # -------------------------------------------------------- known deviations
    Claim("dev.keepalive_sweep", "Keep-alive and keep-dedup sweeps are flat (Fig 12/15)",
          "KA-20 36% worse than KA-10; keep-dedup degrades at 20 min", ("fig12", "fig15"),
          "KA-5/10/15/20 {fig12_sweep}; keep-dedup 5/10/15/20 min {fig15_sweep}",
          ("fig12_ka_20 >= 1.1 * fig12_ka_10",
           "fig15_keep_dedup_20_min >= 1.1 * fig15_keep_dedup_10_min"),
          "Under sustained oversubscription, strict cluster-wide LRU eviction retires idle "
          "sandboxes before their keep-alive or keep-dedup timers expire.", "deviates",
          "Keep workload-agnostic LRU; the headline comparisons reproduce (`fig12`, `fig15`)."),
    Claim("dev.fig1c_level", "Fig 1c level", "0.84-0.90, near uniform", "fig1",
          "{cross} @64B", ("min_cross >= 0.84",),
          "A near-uniform 0.88 needs nearly identical content across functions, which would "
          "overstate dedup savings.", "deviates",
          "Keep the content model calibrated to Table 3 and Fig 8."),
    Claim("dev.fig10_tightest", "Fig 10 tightest pool", "gain 40.7% at the tightest pool",
          "pressure", "gain vs fixed {gains:.1%}, largest pool first", ("gains[-1] >= max(gains)",),
          "The gain peaks at the middle pool. The stated cause, base checkpoints pinning more of "
          "a 2-node pool than of 19 nodes, is unconfirmed: a 19-node probe (60-minute traces, "
          "190 functions, one seed) cut 37.6 / 33.1 / 23.8%, falling as the pool shrinks.",
          "deviates", "Keep trial-gated base demarcation and base eviction for starving "
          "requests; the cause stays open until the evaluation runs at the paper's scale."),
    Claim("dev.aslr_drop", "ASLR savings drop magnitude", "28.8 → 12.1 MB (−58%)", "aslr",
          "{aslr_off_5:.1f} → {aslr_on_5:.1f} MB a sandbox", ("aslr_on_5 <= 0.5 * aslr_off_5",),
          "The paper pairs this drop with a ~5% Fig 1b drop; with content-anchored sampling, "
          "divergence dense enough for one breaks the other's anchors.", "deviates",
          "Calibrate to the redundancy side (Fig 1b); the cardinality remedy reproduces (`aslr`)."),
    Claim("dev.restore_ms", "Restore absolute times (Fig 16)", "378 ms at cardinality 5", "fig16",
          "{restores[0]:.0f} ms at cardinality 5", ("189 <= restores[0] <= 756",),
          "The representative workload's restores are dominated by small functions at our scale.",
          "deviates", "Keep the per-function Fig 8 numbers as the calibrated anchor (`fig8`)."),
)


# ---------------------------------------------------------------- the doc


def render_line(line: str, claim: Claim, digests: dict[str, dict]) -> str:
    """A table row's last two cells, or a deviation's list item, rewritten."""
    measured, failed = claim.verdict(digests)
    quoted = lambda checks: "; ".join(f"`{check}`" for check in checks)
    if claim.expected == "deviates":
        flag = "" if failed else " ❗ The paper's shape holds now: restate or drop this."
        return (f"{line.split('.', 1)[0]}. **{claim.section}.** <!-- claim: {claim.id} --> "
                f"*Issue:* {claim.shape}<br>*Decision:* {claim.decision}<br>*Thresholds, "
                f"the paper's shape:* {quoted(claim.checks)}.<br>*Observed impact:* "
                f"{measured} (paper: {claim.paper}).{flag}")
    shape = claim.shape if claim.as_expected(failed) else f"❌ fails: {quoted(failed)}"
    first, paper = line.split("|")[1:3]
    return f"|{first}|{paper}| {measured} | {shape} |"


def render_experiments(text: str, digests: dict[str, dict]) -> str:
    """``text`` with the line of every claim whose drivers ran rewritten."""
    claims = {claim.id: claim for claim in CLAIMS}
    lines = text.split("\n")
    for index, line in enumerate(lines):
        claim = claims[mark[1]] if (mark := MARK.search(line)) else None
        if claim and set(claim.drivers) <= digests.keys():
            lines[index] = render_line(line, claim, digests)
    return "\n".join(lines)


def run_drivers(names) -> tuple[dict[str, Any], dict[str, dict]]:
    """Each driver run once: (results, digests)."""
    results = {name: DRIVERS[name][0]() for name in names}
    return results, {name: DRIVERS[name][1](result) for name, result in results.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 on an unexpected verdict or a stale doc")
    args = parser.parse_args(argv)
    results, digests = run_drivers(DRIVERS)
    unexpected = []
    for claim in CLAIMS:
        measured, failed = claim.verdict(digests)
        unexpected += [] if claim.as_expected(failed) else [claim.id]
        print(f"{'BAD' if claim.id in unexpected else 'ok '} {claim.id:<19} "
              f"{'deviates' if failed else 'holds':<8} (expected {claim.expected}) {measured}"
              + "".join(f"\n      failed: {name}" for name in failed))
    text = DOC.read_text()
    written = render_experiments(text, digests)
    if args.check:
        if written != text:
            print("EXPERIMENTS.md is stale: run `python -m benchmarks.claims`")
        return 1 if unexpected or written != text else 0
    for name, (_, _, file) in DRIVERS.items():
        if file:
            write_result(file, RENDER.get(name, lambda r: r.render())(results[name]))
    DOC.write_text(written)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
