"""Seeded benchmark for kcomp.

    python3 perfbench/run.py --workload cq_db --seed 1 --seconds 20 --trace 0

Runs one workload (cq_db, cnf_kc or prov_tid; see BENCHMARK.json) from the
root of a source checkout, importing kcomp from its `src/` directory.  Set-up
(input generation, reference answers, a warm-up pass) runs several times
and its median is reported.  Timed passes then repeat for `--seconds`, each
over fresh circuits, and every answer is checked against a reference that
does not use kcomp.

With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json.
With `--trace 1`, passes alternate between untraced and traced; the traced
ones give the per-layer metrics (self time per kcomp call from one span per
call), the untraced ones the tracing overhead.  A traced run also fits the
scaling exponents, runs the ceiling probes under an address-space limit and
writes its spans to `perfbench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
WARM_SCALE = 0.25
MIN_PASSES = 3


def load_kcomp():
    """Import kcomp from this checkout's sources and the benchmark modules."""
    src = ROOT / 'src'
    if not (src / 'kcomp' / '__init__.py').is_file():
        raise SystemExit(f"perfbench: no kcomp sources under {src}")
    # one thread per process: numpy's BLAS pools read these at import
    for var in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS'):
        os.environ.setdefault(var, '1')
    sys.path[:0] = [str(src), str(BENCH)]
    import kcomp
    if Path(kcomp.__file__).resolve().parent != (src / 'kcomp').resolve():
        raise SystemExit(f"perfbench: imported kcomp from {kcomp.__file__}")


def median(values):
    return statistics.median(values) if values else 0.0


def decile_ratio(delays: list) -> float:
    """Mean delay of the last tenth of items over that of the first tenth."""
    k = len(delays) // 10
    if k == 0:
        return 0.0
    first = sum(delays[:k]) / k
    return (sum(delays[-k:]) / k) / first if first else 0.0


def end_to_end(passes, setup_s):
    return {
        'setup_s': setup_s,
        'compile_s': median([p.phase_s['compile'] for p in passes]),
        'query_s': median([p.phase_s['query'] for p in passes]),
        'enum_per_s': median([p.enum_items / p.phase_s['enum']
                              for p in passes if p.phase_s['enum'] > 0]),
        'circuit_edges': statistics.median_low([p.edges for p in passes]),
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced_passes, plain_passes, tracers):
    """Per-layer values from the traced passes (list of (result, spans))."""
    values = {}
    per_pass = [self_times(spans) for _, spans in traced_passes]
    names = set().union(*per_pass)
    for name in names:
        if '.' in name:
            values[name + '_s'] = median([st.get(name, 0.0) for st in per_pass])
    for key in set().union(*(res.counts for res, _ in traced_passes)):
        values[key] = median([res.counts.get(key, 0) for res, _ in traced_passes])
    layers = {name.split('.')[0] for name in names if '.' in name}
    for layer in layers:
        values[layer + '.calls'] = median([
            sum(1 for s in spans if s[2].startswith(layer + '.'))
            for _, spans in traced_passes])
    for t in tracers:
        for layer, n in (t.errors + t.mismatches).items():
            values[layer + '.failed'] = values.get(layer + '.failed', 0) + n
    lookups = values.get('cnf.cache_lookups', 0)
    if lookups:
        values['cnf.cache_hit_ratio'] = values['cnf.cache_hits'] / lookups
    access = [s[4] - s[3] for _, spans in traced_passes for s in spans
              if s[2] == 'relational.access']
    if len(access) >= 100:
        cuts = statistics.quantiles(access, n=100)
        values['relational.access_p50_us'] = cuts[49] * 1e6
        values['relational.access_p99_us'] = cuts[98] * 1e6
    for name in ('relational.enum', 'queries.enum'):
        ratios = [decile_ratio(d) for res, _ in traced_passes
                  for d in res.delays.get(name, ()) if len(d) >= 20]
        if ratios:
            values[name + '_delay_ratio'] = median(ratios)

    def base(p):
        return p.phase_s['compile'] + p.phase_s['query'] + p.phase_s['enum']
    plain = median([base(p) for p in plain_passes])
    if plain:
        values['trace.overhead_ratio'] = median(
            [base(r) for r, _ in traced_passes]) / plain - 1
    values['trace.spans'] = median([len(spans) for _, spans in traced_passes])
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text(encoding='utf-8'))
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True,
                        choices=[w['name'] for w in spec['workloads']])
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--scale', type=float, default=1.0,
                        help='input size factor (the self-test uses tiny sizes)')
    args = parser.parse_args(argv)

    start = perf_counter()
    load_kcomp()
    import probes
    import sweep
    from workloads import WORKLOADS
    import_s = perf_counter() - start

    out_dir = BENCH / 'out'
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f'{args.workload}-', dir=out_dir)
    try:
        cls = WORKLOADS[args.workload]
        setups = []
        for _ in range(SETUP_REPEATS):
            begin = perf_counter()
            wl = cls()
            wl.prepare(random.Random(args.seed), args.scale)
            warm = cls()
            warm.prepare(random.Random(args.seed), args.scale * WARM_SCALE)
            warm.run_pass(Tracer(False), False, workdir)
            setups.append(perf_counter() - begin)
        setup_s = import_s + median(setups)

        plain, traced = Tracer(False), Tracer(True)
        plain_passes, traced_passes = [], []
        deadline = perf_counter() + args.seconds
        want = 2 * MIN_PASSES if args.trace else MIN_PASSES
        while len(plain_passes) + len(traced_passes) < want or perf_counter() < deadline:
            if args.trace and len(plain_passes) > len(traced_passes):
                first = len(traced.spans)
                with traced.section('pass'):
                    res = wl.run_pass(traced, True, workdir)
                traced_passes.append((res, traced.spans[first:]))
            else:
                plain_passes.append(wl.run_pass(plain, False, workdir))

        tracers = (plain, traced)
        if not args.trace:
            values = end_to_end(plain_passes, setup_s)
            metrics = spec['end_to_end']
        else:
            values = per_layer(traced_passes, plain_passes, tracers)
            values.update(sweep.run(traced, args.seed, args.scale))
            probes.limit_address_space()
            outcomes = probes.run(Tracer(False), random.Random(args.seed))
            for name, outcome in outcomes:
                print(f"probe {name}: {outcome}")
            values['probes.attempted'] = len(outcomes)
            values['probes.failed'] = sum(o != 'ok' for _, o in outcomes)
            traced.write(out_dir / f'spans-{args.workload}-{args.seed}.jsonl')
            metrics = spec['per_layer']
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tracers)
    failed = sum(t.failed for t in tracers)
    result = {}
    for m in metrics:
        value = values.get(m['name'], 0)
        result[m['name']] = {'value': value, 'unit': m['unit']}
        print(f"{args.workload:9s} {m['name']:32s} {value:>16.6g} {m['unit']}")
    print(f"{args.workload:9s} {'fail_ratio':32s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} operations)")
    for layer, n in sorted((plain.errors + traced.errors).items()):
        print(f"errors in {layer}: {n}", file=sys.stderr)
    for layer, n in sorted((plain.mismatches + traced.mismatches).items()):
        print(f"wrong answers from {layer}: {n}", file=sys.stderr)
    print(json.dumps({'correct': failed == 0, 'attempted': attempted,
                      'failed': failed, 'metrics': result}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
