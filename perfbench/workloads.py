"""Seeded generators for the benchmark's workloads.

Each generator takes the workload seed and a size ("full" for measured
runs, "smoke" for the benchmark's own tiny self-test) and returns the
spec files to write as {file name: text}. The simulator sees only these
generated .scn/.swp files. The same seed always gives byte-identical
text: randomness comes from a local SplitMix64, not from Python's
`random`, so the inputs do not depend on the Python version.

Every workload also gets a shortened copy (file names ending in
`_short`), used to byte-compare the default engine against `naive`.
"""

# Seed kept out of every tuning run, for checking later performance claims
# on inputs nobody optimised for: `run.py --workload W --seed 7919`.
HELD_OUT_SEED = 7919

MASK64 = (1 << 64) - 1


def _mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed):
        # Mixed, so nearby seeds do not give shifted copies of one stream.
        self.state = _mix64(seed & MASK64)

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        return _mix64(self.state)

    def below(self, n):
        return self.next() % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _pairs(flows):
    return " ".join(f"{src} {dst}" for src, dst in flows)


def _point_seeds(seed, n):
    rng = SplitMix64(seed ^ 0x5EED)
    return " ".join(str(1 + rng.below(1 << 30)) for _ in range(n))


def _swp(name, axes):
    """A sweep over `name`_base.scn with one `axis` line per entry."""
    return "\n".join([f"sweep {name}", f"base {name}_base.scn"] +
                     [f"axis {axis}" for axis in axes] + [""])


# --- mesh16_mixed -----------------------------------------------------------

MESH16_WHY = ("routers, NI kernels and links take nearly all host time on a "
              "256-NI static GT+BE mesh, so engine, router and NI-kernel "
              "gains show here")

MESH_MAX_HOPS = 3  # source routes cap at 7 hops; stay well inside


def _mesh_partners(rng, side, max_indegree):
    """One partner per NI within MESH_MAX_HOPS (Manhattan, > 0), visiting
    NIs in seeded order and preferring the least-loaded destinations, so
    no NI sinks more than `max_indegree` streams of one directive."""
    order = list(range(side * side))
    rng.shuffle(order)
    indegree = [0] * (side * side)
    flows = []
    for src in order:
        r, c = divmod(src, side)
        near = [rr * side + cc
                for rr in range(max(0, r - MESH_MAX_HOPS),
                                min(side, r + MESH_MAX_HOPS + 1))
                for cc in range(max(0, c - MESH_MAX_HOPS),
                                min(side, c + MESH_MAX_HOPS + 1))
                if 0 < abs(rr - r) + abs(cc - c) <= MESH_MAX_HOPS]
        least = min(indegree[n] for n in near)
        if least >= max_indegree:
            raise ValueError("mesh partner draw exceeded the indegree cap")
        choices = [n for n in near if indegree[n] == least]
        dst = choices[rng.below(len(choices))]
        indegree[dst] += 1
        flows.append((src, dst))
    flows.sort()
    return flows


def _mesh16_scn(seed, side, warmup, duration):
    rng = SplitMix64(seed)
    gt = _mesh_partners(rng, side, max_indegree=2)
    be = _mesh_partners(rng, side, max_indegree=4)
    return "\n".join([
        "scenario mesh16_mixed",
        f"noc mesh {side} {side} 1",
        "stu 16",
        "queues 32",
        f"seed {seed}",
        f"warmup {warmup}",
        f"duration {duration}",
        f"traffic pairs {_pairs(gt)} inject periodic 16 qos gt 2",
        f"traffic pairs {_pairs(be)} inject bernoulli 0.02 qos be",
        "",
    ])


def mesh16_mixed(seed, size):
    side, duration = (16, 6000) if size == "full" else (4, 600)
    return {
        "mesh16_mixed.scn": _mesh16_scn(seed, side, 500, duration),
        "mesh16_mixed_short.scn": _mesh16_scn(seed, side, 100, 300),
    }


# --- memory_reconfig --------------------------------------------------------

MEMORY_WHY = ("shells, transactions, memory IPs, the connection manager, the "
              "TDM allocator and the monitor carry the work while the network "
              "is tiny; reads and writes load the two legs differently")


def _memory_scn(seed, rounds, duration):
    # 2x2 mesh, 2 NIs per router (NI n sits on router n // 2); NI 0 hosts
    # the configuration master. Placement is fixed, so GT latencies are the
    # same for every seed; the seed drives the BE and memory arrivals.
    lines = [
        "scenario memory_reconfig",
        "noc mesh 2 2 2",
        "stu 16",
        "queues 32",
        f"seed {seed}",
        "warmup 400",
        "verify on",
        "cfgni 0",
    ]
    for k in range(rounds):
        lines += [
            f"phase video{k} duration {duration}",
            "traffic video 1 2 7 inject periodic 16 qos gt 2",
            "traffic pairs 3 5 4 6 inject bursty 4 48 qos be",
            f"phase memory{k} duration {duration}",
            "traffic memory 1 4 inject periodic 48 qos gt 2 burst 4 "
            "read_fraction 0.5",
            "traffic memory 3 4 inject bernoulli 0.01 qos be burst 4 "
            "read_fraction 1.0",
            "traffic memory 2 6 inject closed qos be burst 4 "
            "read_fraction 0.0",
            "traffic memory 7 6 inject bernoulli 0.005 qos be burst 8 "
            "read_fraction 0.0",
        ]
    lines.append("")
    return "\n".join(lines)


def memory_reconfig(seed, size):
    # Run as a seed sweep on the pool. On a shared 4-vCPU Xeon host, single
    # runs of this tiny network spread by 0.26-0.35 (IQR / median over ten
    # benchmark runs) as the host's speed drifted; the pool sweep, 0.08.
    rounds, duration, seeds = (3, 6000, 8) if size == "full" else (1, 800, 2)
    return {
        "memory_reconfig.swp": _swp("memory_reconfig",
                                    ["seed " + _point_seeds(seed, seeds)]),
        "memory_reconfig_base.scn": _memory_scn(seed, rounds, duration),
        "memory_reconfig_short.swp": _swp("memory_reconfig_short",
                                          ["seed " + _point_seeds(seed, 1)]),
        "memory_reconfig_short_base.scn": _memory_scn(seed, 1, 600),
    }


# --- sweep_star_grid --------------------------------------------------------

SWEEP_WHY = ("per-point fixed costs (materialise, build, summarise, emit) "
             "and pool scheduling dominate a 100-point grid of short runs on "
             "a 7-port star")


def _star_base(seed, warmup, duration):
    rng = SplitMix64(seed)
    src = rng.below(7)
    dst = (src + 1 + rng.below(6)) % 7
    return "\n".join([
        "scenario star_grid",
        "noc star 7",
        "stu 8",
        "queues 32",
        f"seed {seed}",
        f"warmup {warmup}",
        f"duration {duration}",
        "traffic uniform inject bernoulli 0.03 qos be",
        f"traffic pairs {src} {dst} inject periodic 32 qos gt 2",
        "",
    ])


def _star_swp(name, seed, rates, seeds, stus):
    return _swp(name, ["rate " + " ".join(rates),
                       "seed " + _point_seeds(seed, seeds),
                       "stu " + " ".join(stus)])


def sweep_star_grid(seed, size):
    rates = ["0.01", "0.02", "0.03", "0.04", "0.05"]
    if size == "full":
        grid = _star_swp("sweep_star_grid", seed, rates, 5,
                         ["8", "12", "16", "24"])
        base = _star_base(seed, 200, 1000)
    else:
        grid = _star_swp("sweep_star_grid", seed, rates[:2], 2, ["8", "16"])
        base = _star_base(seed, 100, 400)
    return {
        "sweep_star_grid.swp": grid,
        "sweep_star_grid_base.scn": base,
        "sweep_star_grid_short.swp": _star_swp(
            "sweep_star_grid_short", seed, rates[:2], 1, ["8"]),
        "sweep_star_grid_short_base.scn": _star_base(seed, 100, 400),
    }


# name -> (kind, generator, why). `kind` picks the harness mode.
WORKLOADS = {
    "mesh16_mixed": ("scenario", mesh16_mixed, MESH16_WHY),
    "memory_reconfig": ("sweep", memory_reconfig, MEMORY_WHY),
    "sweep_star_grid": ("sweep", sweep_star_grid, SWEEP_WHY),
}
