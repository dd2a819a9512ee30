"""The three lifebench workloads. Each runs one pass: set-up, timed engine
work, then the correctness gate.

* ladder: the paper's 10x10..100x100:10 size ladder on all three engines,
  directly and through bench.run_bench / linear_fit / comparison_table.
  Step kernels do almost all the work, so a kernel change shows here and a
  codec or generator change should not.
* megaworld: one 1000x1000 world. Set-up (random_world, elaborate) and the
  World <-> engine codec dominate, and the netlist sets peak memory.
* frames: World-in/World-out use at 500x500: the `run` CLI command end to
  end, then one-generation engines.run calls that pay load + step + world()
  on every generation. A codec change moves this and leaves ladder flat.

Each engine gets its own step count so that its step loop takes a
comparable share of the pass. Every engine's final world must equal the
world an untimed bitsliced oracle reaches at the same generation; the
oracle itself is checked against the reference engine's final world.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import sys

KINDS = ("reference", "bitsliced", "circuit")
DENSITY = 0.5

# "digests" pins the digest of the final worlds for seeds 1 to 10, the seeds
# the baseline uses. They were checked once against the circuit engine run
# to the full step count of every engine, so a long-run bug in the bitsliced
# oracle cannot hide behind them. Any other seed is checked by cross-engine
# agreement alone.

LADDER = {
    "sizes": tuple((k, k) for k in range(10, 101, 10)),
    "steps": {"reference": 20, "bitsliced": 10000, "circuit": 150},
    "digests": {
        1: "b69110fedf729df4", 2: "afbd779bcdf4b586", 3: "5488cb089aa5d6dc", 4: "5356cd85866ea2b4",
        5: "36f176a4f46788c6", 6: "9e00dd2b207df376", 7: "1ee724d8176941aa", 8: "2eecb81732ebf6fe",
        9: "df49ded2d9c8a10f", 10: "893ae60fd6fa3632",
    },
}
MEGAWORLD = {
    "size": (1000, 1000),
    "steps": {"reference": 2, "bitsliced": 8, "circuit": 8},
    "digests": {
        1: "c42c4017ffd3fdee", 2: "4641e7f773bb1e99", 3: "db2671fbb1c2292b", 4: "72d5e2f7e9f41072",
        5: "a024f864fe0ae554", 6: "e62c98e0ce546608", 7: "28d242ec27fa345c", 8: "153c8d2f10ac3e40",
        9: "bbb44d6d1f43f23d", 10: "de486c7c0963bbc9",
    },
}
FRAMES = {
    "size": (500, 500),
    "steps": {"reference": 2, "bitsliced": 48, "circuit": 16},
    "digests": {
        1: "8406878681024301", 2: "8d9e39cad5f292d4", 3: "836b97bf8269ff1e", 4: "ae9d41aeb446eb80",
        5: "0347292a1a1f973d", 6: "c4abdaf4cbdc590a", 7: "97e6e3d8c73208f5", 8: "c9c06b4acdc472bc",
        9: "eefbf41b70c4f4d2", 10: "7686673f51d43b81",
    },
}


class Gate:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def import_package():
    """lifebench imported afresh: its modules are dropped and re-executed,
    so every pass pays the package's own import cost (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "lifebench" or m.startswith("lifebench.")]:
        del sys.modules[name]
    return importlib.import_module("lifebench")


def fresh_import(tr):
    with tr.span("import"):
        lb = import_package()
        importlib.import_module("lifebench.cli")  # the package __init__ skips cli
    return lb


def generate(lb, tr, width, height, seed):
    with tr.span("grid.random_world", cells=width * height):
        return lb.grid.random_world(width, height, DENSITY, seed)


def new_engine(lb, tr, kind, width, height):
    """Engine of `kind`; the circuit engine gets an explicitly elaborated
    netlist, so elaboration is timed on its own and never inside load()."""
    if kind != "circuit":
        return lb.engines.make_engine(kind)
    with tr.span("circuit.elaborate", cells=width * height) as sp:
        netlist = lb.circuit.elaborate(width, height)
    sp.attrs["nodes"] = sum(lb.circuit.count_resources(netlist))
    return lb.engines.CircuitEngine(netlist=netlist)


# Spans tagged engine=<kind> are the engine's load + step + world() time,
# the denominator of its cell-updates per second; cellgens is the numerator.

def load(tr, engine, world):
    with tr.span(f"engines.{engine.kind}.load", engine=engine.kind):
        engine.load(world)


def step_loop(tr, engine, steps, cells):
    with tr.span(f"engines.{engine.kind}.step", engine=engine.kind, steps=steps,
                 cellgens=cells * steps):
        for _ in range(steps):
            engine.step()


def read_world(tr, engine):
    with tr.span(f"engines.{engine.kind}.world", engine=engine.kind):
        return engine.world()


def instrument(tr, engine, cells):
    """Per-call spans on one engine instance (detailed tracing only). They
    carry no engine tag: the enclosing loop span already counts the time."""
    kind = engine.kind
    engine.load = tr.wrap(f"engines.{kind}.load", engine.load)
    engine.step = tr.wrap(f"engines.{kind}.step", engine.step, steps=1, cellgens=cells)
    engine.world = tr.wrap(f"engines.{kind}.world", engine.world)


def oracle(lb, world, generations):
    """Worlds an untimed bitsliced run reaches at each of `generations`."""
    engine = lb.engines.make_engine("bitsliced", world)
    out, done = {}, 0
    for g in sorted(set(generations)):
        for _ in range(g - done):
            engine.step()
        done = g
        out[g] = engine.world()
    return out


def digest(worlds) -> str:
    h = hashlib.sha256()
    for w in worlds:
        h.update(f"{w.width}x{w.height}@{w.generation}:".encode())
        h.update(b"".join(x.to_bytes(8, "little") for x in w.words))
    return h.hexdigest()[:16]


def check_finals(lb, tr, gate, starts, finals, steps):
    """finals[kind][i] must equal the oracle's world from starts[i] after
    steps[kind] generations; the reference final anchors the oracle.
    Returns the oracle's worlds per start."""
    expects = []
    with tr.span("check"):
        for i, start in enumerate(starts):
            expect = oracle(lb, start, steps.values())
            expects.append(expect)
            for kind in KINDS:
                got = finals[kind][i]
                gate.check(got == expect[steps[kind]] and got.generation == steps[kind],
                           f"{kind} {start.width}x{start.height}: world after "
                           f"{steps[kind]} steps differs from the other engines")
    return expects


def step_all(lb, tr, gate, starts, engines, steps):
    """Timed step loop and readback of every engine on every start world."""
    finals = {kind: [] for kind in KINDS}
    for kind in KINDS:
        for engine, start in zip(engines[kind], starts):
            step_loop(tr, engine, steps[kind], start.width * start.height)
            finals[kind].append(read_world(tr, engine))
    check_finals(lb, tr, gate, starts, finals, steps)
    return [w for kind in KINDS for w in finals[kind]]


def finite_positive(x) -> bool:
    return math.isfinite(x) and x > 0


def ladder(tr, gate, seed, cfg, workdir):
    sizes, steps = cfg["sizes"], cfg["steps"]
    with tr.span("setup"):
        lb = fresh_import(tr)
        # the same world stream bench.run_bench draws for this seed
        rng = lb.grid.Rng(seed)
        starts = [generate(lb, tr, w, h, rng.next_u64()) for w, h in sizes]
        engines = {kind: [new_engine(lb, tr, kind, s.width, s.height) for s in starts]
                   for kind in KINDS}
        for kind in KINDS:
            for engine, start in zip(engines[kind], starts):
                load(tr, engine, start)
    finals = step_all(lb, tr, gate, starts, engines, steps)

    samples = {}
    for kind in KINDS:
        bcfg = lb.bench.BenchConfig(sizes=tuple(sizes), engine=kind, min_steps=steps[kind],
                                    min_duration=0, warmup_steps=0, seed=seed,
                                    density=DENSITY)
        with tr.span("bench.run_bench") as sp:
            samples[kind] = lb.bench.run_bench(bcfg)
        sp.attrs[f"{kind}.steps"] = sum(s.steps for s in samples[kind])
        sp.attrs[f"{kind}.sample_ns"] = sum(s.total_ns for s in samples[kind])
        for s in samples[kind]:
            gate.check(s.steps == steps[kind] and finite_positive(s.ns_per_step),
                       f"run_bench {kind} {s.width}x{s.height}: steps={s.steps} "
                       f"ns/step={s.ns_per_step}")
        with tr.span("bench.linear_fit"):
            fit = lb.bench.linear_fit([(s.cells, s.ns_per_step) for s in samples[kind]])
        gate.check(math.isfinite(fit.slope) and math.isfinite(fit.intercept)
                   and 0.0 <= fit.r_squared <= 1.0, f"linear_fit {kind}: {fit}")
    with tr.span("energy.comparison_table"):
        rows = lb.energy.comparison_table(samples)
    gate.check(len(rows) == len(KINDS) * len(sizes) + len(set(sizes))
               and all(finite_positive(r.speedup_vs_fpga) for r in rows),
               "comparison_table rows")
    return digest(finals)


def megaworld(tr, gate, seed, cfg, workdir):
    (w, h), steps = cfg["size"], cfg["steps"]
    with tr.span("setup"):
        lb = fresh_import(tr)
        start = generate(lb, tr, w, h, seed)
        engines = {kind: [new_engine(lb, tr, kind, w, h)] for kind in KINDS}
        for kind in KINDS:
            load(tr, engines[kind][0], start)
    return digest(step_all(lb, tr, gate, [start], engines, steps))


def frames(tr, gate, seed, cfg, workdir):
    (w, h), steps = cfg["size"], cfg["steps"]
    path = workdir / "start.txt"
    with tr.span("setup"):
        lb = fresh_import(tr)
        generated = generate(lb, tr, w, h, seed)
        with tr.span("grid.serialize_pattern") as sp:
            text = lb.grid.serialize_pattern(generated)
        sp.attrs["bytes"] = len(text)
        path.write_text(text, encoding="ascii")
        text = path.read_text("ascii")
        with tr.span("grid.parse_pattern", bytes=len(text)):
            start = lb.grid.parse_pattern(text)
        gate.check(start == generated, "pattern serialize/parse round trip")
        engines = {kind: new_engine(lb, tr, kind, w, h) for kind in KINDS}
        for kind in KINDS:
            load(tr, engines[kind], start)

    from_cli = {}
    for kind in KINDS:
        out = workdir / f"{kind}.txt"
        with tr.span("cli.run"):
            code = lb.cli.main(["run", str(path), "--engine", kind,
                                "--steps", str(steps[kind]), "--out", str(out)])
        gate.check(code == 0, f"cli run --engine {kind} exited {code}")
        text = out.read_text("ascii")
        with tr.span("grid.parse_pattern", bytes=len(text)):
            from_cli[kind] = lb.grid.parse_pattern(text)

    finals = {}
    for kind in KINDS:
        engine = engines[kind]
        if tr.detailed:
            instrument(tr, engine, w * h)
        world = start
        with tr.span(f"engines.{kind}.run", engine=kind, cellgens=w * h * steps[kind]):
            for _ in range(steps[kind]):
                world = lb.engines.run(engine, world, 1)
        finals[kind] = [world]
    [expect] = check_finals(lb, tr, gate, [start], finals, steps)
    for kind in KINDS:
        gate.check(from_cli[kind] == expect[steps[kind]],
                   f"cli run --engine {kind}: output differs from the other engines")
    return digest([finals[kind][0] for kind in KINDS] + [from_cli[kind] for kind in KINDS])


WORKLOADS = {
    "ladder": (ladder, LADDER),
    "megaworld": (megaworld, MEGAWORLD),
    "frames": (frames, FRAMES),
}
