"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, must finish,
   check clean, and print every metric of BENCHMARK.json with its unit.
2. Every time and call-count metric must be non-zero on some workload, so
   a misspelt call or metric name cannot hide as a permanent zero.
3. A reference corrupted on purpose must show up as a failed operation.

Exits with 1 and names the failures if any check fails.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY = '0.05'


def tiny_run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / 'run.py'), '--workload', workload,
           '--seed', '3', '--seconds', '0.5', '--trace', str(trace),
           '--scale', TINY]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {done.returncode}:\n"
                             f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def corrupt(wl) -> None:
    """Falsify one reference answer of a prepared workload."""
    name = wl.name
    if name == 'cq_db':
        wl.queries[0]['answers'] = wl.queries[0]['answers'][1:]
    elif name == 'cnf_kc':
        wl.instances[0]['ref'].count += 1
    else:
        wl.pqe_ref += 1


def main() -> int:
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text(encoding='utf-8'))
    problems = []
    measured = set()
    for w in spec['workloads']:
        for trace, key in ((0, 'end_to_end'), (1, 'per_layer')):
            try:
                out = tiny_run(w['name'], trace)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                problems.append(str(exc))
                continue
            if not (out['correct'] and out['failed'] == 0 and out['attempted'] >= 1):
                problems.append(f"{w['name']} trace={trace}: {out['failed']} of "
                                f"{out['attempted']} operations failed")
            for m in spec[key]:
                got = out['metrics'].get(m['name'])
                if got is None or got['unit'] != m['unit']:
                    problems.append(f"{w['name']} trace={trace}: {m['name']} "
                                    f"missing or not in {m['unit']}")
                elif got['value']:
                    measured.add(m['name'])
            if set(out['metrics']) != {m['name'] for m in spec[key]}:
                problems.append(f"{w['name']} trace={trace}: extra metrics")
    for m in spec['per_layer'] + spec['end_to_end']:
        named_by_calls = m['unit'] == 's' or m['name'].endswith('.calls')
        if named_by_calls and m['name'] not in measured:
            problems.append(f"{m['name']} is zero on every workload")

    sys.path[:0] = [str(ROOT / 'src'), str(BENCH)]
    from tracer import Tracer
    from workloads import WORKLOADS
    (BENCH / 'out').mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / 'out') as workdir:
        for name, cls in WORKLOADS.items():
            wl = cls()
            wl.prepare(random.Random(3), float(TINY))
            corrupt(wl)
            t = Tracer(False)
            wl.run_pass(t, False, workdir)
            if not sum(t.mismatches.values()):
                problems.append(f"{name}: a corrupted reference went unnoticed")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == '__main__':
    sys.exit(main())
