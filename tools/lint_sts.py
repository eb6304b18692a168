#!/usr/bin/env python3
"""Project-specific invariants that neither the compiler nor clang-tidy check.

Run from anywhere: `python3 tools/lint_sts.py`. Exits non-zero listing every
violation. Enforced rules:

 1. `intra_threads` is a pure execution knob: it must never appear inside a
    cache-key code path (any function named `key`, `cache_key`, or
    `canonical_cache_key`) — results are bit-identical at every lane count,
    so letting it into a key would silently split the cache.

 2. Every counter declared in a `struct Stats` must be rendered by a
    stats_json() implementation AND documented in the README stats table:
    a counter that is maintained but never surfaced is dead weight, and one
    missing from the README is invisible to operators.

 3. `sim/sim_internal.hpp` is private to src/sim/ — the simulator's internal
    event structures are not a public seam.

 4. Every bench/bench_*.cpp emits its BENCH_<name>.json report (CI archives
    these; perf gates read them), via BenchReport("<name>") or a literal
    "BENCH_<name>.json" write.

 5. The stats wire format round-trips: every cumulative counter key that
    ScheduleService::render_stats_json() emits must be parsed back by
    service_stats_from_json() (RemoteBackend scrapes /stats through it, and a
    key the parser ignores silently zeroes that counter in every router
    aggregate), and the parser must not read keys the renderer never writes.
    Gauges (workers, cache_weight, ...) are point-in-time values read through
    other paths and are allowlisted.

 6. LRU bookkeeping is written once: `std::list` and `.splice(` appear in
    src/ only in support/weighted_lru.hpp. Every cache builds on that
    WeightedLru core instead of hand-rolling its own recency list.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BENCH = REPO / "bench"
README = REPO / "README.md"

KEY_FUNC_NAMES = ("key", "cache_key", "canonical_cache_key")


def fail(errors: list[str], message: str) -> None:
    errors.append(message)


def strip_comments(text: str) -> str:
    """Removes // and /* */ comments (string literals are left alone: good
    enough for these rules, where the tokens we scan for never appear inside
    project string literals in a misleading way)."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def function_bodies(text: str, names: tuple[str, ...]):
    """Yields (name, body) for every definition of a function whose unqualified
    name is in `names`, by brace tracking from the definition's opening brace."""
    pattern = re.compile(
        r"\b(?:[\w~]+\s*::\s*)*(" + "|".join(names) + r")\s*\(([^;{)]*)\)\s*"
        r"(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>&\s]+)?\{"
    )
    for match in pattern.finditer(text):
        start = match.end() - 1  # the '{'
        depth = 0
        for i in range(start, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    yield match.group(1), text[start : i + 1]
                    break


def check_intra_threads_out_of_keys(errors: list[str]) -> None:
    for path in sorted(SRC.rglob("*.[ch]pp")):
        text = strip_comments(path.read_text())
        for name, body in function_bodies(text, KEY_FUNC_NAMES):
            if "intra_threads" in body:
                fail(
                    errors,
                    f"{path.relative_to(REPO)}: {name}() mentions intra_threads — "
                    "execution knobs must never reach cache-key code paths",
                )


def stats_counters() -> list[tuple[Path, str]]:
    counters = []
    for path in sorted(SRC.rglob("*.hpp")):
        text = strip_comments(path.read_text())
        for match in re.finditer(r"struct\s+Stats\s*\{", text):
            start = match.end() - 1
            depth = 0
            for i in range(start, len(text)):
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        body = text[start : i + 1]
                        for field in re.finditer(r"std::uint64_t\s+(\w+)\s*=", body):
                            counters.append((path, field.group(1)))
                        break
    return counters


def check_stats_surfaced(errors: list[str]) -> None:
    renderers = ""
    for path in sorted(SRC.rglob("*.cpp")):
        text = path.read_text()
        if "stats_json" in text:
            renderers += text
    rendered_keys = set(re.findall(r'"([\w]+)"', renderers))
    readme_table_rows = [
        line for line in README.read_text().splitlines() if line.lstrip().startswith("|")
    ]
    for path, counter in stats_counters():
        if not any(counter in key for key in rendered_keys):
            fail(
                errors,
                f"{path.relative_to(REPO)}: Stats counter `{counter}` is never "
                "rendered by any stats_json()",
            )
        if not any(counter in row for row in readme_table_rows):
            fail(
                errors,
                f"{path.relative_to(REPO)}: Stats counter `{counter}` is missing "
                "from the README stats table",
            )


def check_sim_internal_private(errors: list[str]) -> None:
    for path in sorted(SRC.rglob("*.[ch]pp")):
        if path.is_relative_to(SRC / "sim"):
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r'#\s*include\s*"sim/sim_internal\.hpp"', line):
                fail(
                    errors,
                    f"{path.relative_to(REPO)}:{i}: sim/sim_internal.hpp is "
                    "private to src/sim/",
                )
    for path in sorted((REPO / "tests").glob("*.cpp")) + sorted(BENCH.glob("*.cpp")):
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r'#\s*include\s*"sim/sim_internal\.hpp"', line):
                fail(
                    errors,
                    f"{path.relative_to(REPO)}:{i}: sim/sim_internal.hpp is "
                    "private to src/sim/",
                )


def check_bench_reports(errors: list[str]) -> None:
    for path in sorted(BENCH.glob("bench_*.cpp")):
        name = path.stem[len("bench_") :]
        text = path.read_text()
        emits = (
            f'BenchReport report("{name}")' in text
            or f'BenchReport("{name}")' in text
            or f'"BENCH_{name}.json"' in text
        )
        if not emits:
            fail(
                errors,
                f"{path.relative_to(REPO)}: does not emit BENCH_{name}.json "
                f'(construct sts::bench::BenchReport("{name}") and write() it)',
            )


# Point-in-time gauges in the /stats document: not cumulative ServiceStats
# counters, so service_stats_from_json() intentionally skips them (workers and
# cache_weight are read through dedicated paths by RemoteBackend).
STATS_GAUGE_KEYS = {
    "schema_version",
    "uptime_seconds",
    "workers",
    "queue_depth_limit",
    "max_queue_depth",
    "cache_size",
    "cache_weight",
    "cache_capacity",
}


def check_stats_wire_round_trip(errors: list[str]) -> None:
    renderer_path = SRC / "service" / "schedule_service.cpp"
    parser_path = SRC / "service" / "backend.cpp"
    rendered: set[str] = set()
    for name, body in function_bodies(renderer_path.read_text(), ("render_stats_json",)):
        rendered.update(re.findall(r'field\("(\w+)"', body))
        rendered.update(re.findall(r'\\"(\w+)\\"', body))
    parsed: set[str] = set()
    for name, body in function_bodies(parser_path.read_text(), ("service_stats_from_json",)):
        parsed.update(re.findall(r'counter\("(\w+)"\)', body))
        parsed.update(re.findall(r'find\("(\w+)"\)', body))
    if not rendered:
        fail(errors, f"{renderer_path.relative_to(REPO)}: render_stats_json() not found")
        return
    if not parsed:
        fail(errors, f"{parser_path.relative_to(REPO)}: service_stats_from_json() not found")
        return
    for key in sorted(rendered - parsed - STATS_GAUGE_KEYS):
        fail(
            errors,
            f"{renderer_path.relative_to(REPO)}: stats key `{key}` is rendered but "
            "never parsed by service_stats_from_json() — remote scrapes drop it "
            "(parse it, or allowlist it in STATS_GAUGE_KEYS if it is a gauge)",
        )
    for key in sorted(parsed - rendered):
        fail(
            errors,
            f"{parser_path.relative_to(REPO)}: service_stats_from_json() reads "
            f"`{key}`, which render_stats_json() never writes",
        )


LRU_CORE = SRC / "support" / "weighted_lru.hpp"


def check_single_lru_core(errors: list[str]) -> None:
    for path in sorted(SRC.rglob("*.[ch]pp")):
        if path == LRU_CORE:
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\bstd::list\b|\.splice\(", re.sub(r"//.*", "", line)):
                fail(
                    errors,
                    f"{path.relative_to(REPO)}:{i}: std::list/.splice( outside "
                    f"{LRU_CORE.relative_to(REPO)} — build the cache on WeightedLru",
                )


def main() -> int:
    errors: list[str] = []
    check_intra_threads_out_of_keys(errors)
    check_stats_surfaced(errors)
    check_sim_internal_private(errors)
    check_bench_reports(errors)
    check_stats_wire_round_trip(errors)
    check_single_lru_core(errors)
    if errors:
        print(f"lint_sts: {len(errors)} violation(s)", file=sys.stderr)
        for message in errors:
            print(f"  {message}", file=sys.stderr)
        return 1
    print("lint_sts: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
