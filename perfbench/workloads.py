"""Seeded command streams for the benchmark workloads.

Each workload is an endless stream of ``blockfade`` CLI invocations drawn
from ``random.Random(seed)``. The library sees only the generated argv and
the channel file written into the run's work directory.
"""

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("sweep-length", "sweep-power", "verify-default")

PRESET = "paper-rayleigh"
TWO_STATE = {"gains": [1.0, 2.0], "probs": [0.5, 0.5]}
POWERS_DB = (0.0, 5.0, 10.0, 15.0, 20.0)
EPSILONS = (1e-3, 1e-2, 1e-1)

# Documented CLI defaults the checks rely on (README, "Command-line interface").
SWEEP_DEFAULTS = {"noise_var": 1.0, "n_c": 1, "power_db": 5.0, "epsilon": 0.01, "beta": 0.01}
BLOCKLENGTH_SWEEP = {"b_min": 100, "b_max": 10000, "points": 40}
POWER_SWEEP = {"p_min_db": 0.0, "p_max_db": 20.0, "points": 41, "blocks": 4000}
VERIFY_DEFAULTS = {"channel": TWO_STATE, "noise_var": 1.0, "n_c": 1, "budget": 1.0,
                   "alpha": 0.1, "controller": {"blocks": 1000, "trials": 100000},
                   "density": {"blocks": 10000, "trials": 10000}}

# Exit codes that are not failures: verify's 3 is a verdict on the sample.
ALLOWED_EXIT = {"rate-vs-blocklength": {0}, "rate-vs-power": {0}, "verify": {0, 3}}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the inputs its output is checked against."""

    argv: tuple[str, ...]
    kind: str
    channel: str = PRESET          # PRESET or "two-state"
    power_db: float = SWEEP_DEFAULTS["power_db"]
    epsilon: float = SWEEP_DEFAULTS["epsilon"]
    mc_seed: int = 0
    trials: int = 0                # verify only: 0 means the documented defaults
    out: str = ""
    svg: str = ""


class Workload:
    """Writes the workload's input files into ``workdir`` and yields commands."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.out = os.path.join(workdir, "out.csv")
        self.svg = os.path.join(workdir, "out.svg")
        self.report = os.path.join(workdir, "report.json")
        self.two_state_path = os.path.join(workdir, "two-state.json")
        with open(self.two_state_path, "w", encoding="utf-8") as fh:
            json.dump(TWO_STATE, fh)

    def commands(self, stream: int = 0):
        """Endless command stream; ``stream`` 1 is the warm-up stream."""
        rng = random.Random(f"{self.name}/{self.seed}/{stream}")
        while True:
            yield self._draw(rng)

    def warmup(self) -> list[Command]:
        """Commands run before timing starts; their outputs are not checked."""
        if self.name == "verify-default":
            # Same code paths as the measured command at 1/100 of the trials.
            return [self._verify(0, trials=100)]
        stream = self.commands(stream=1)
        return [next(stream) for _ in range(20)]

    def _draw(self, rng: random.Random) -> Command:
        if self.name == "sweep-length":
            channel = rng.choice((PRESET, "two-state"))
            power_db = rng.choice(POWERS_DB)
            epsilon = rng.choice(EPSILONS)
            argv = ("rate-vs-blocklength",
                    "--channel", PRESET if channel == PRESET else self.two_state_path,
                    "--power-db", repr(power_db), "--epsilon", repr(epsilon),
                    "--out", self.out, "--svg", self.svg)
            return Command(argv, "rate-vs-blocklength", channel=channel, power_db=power_db,
                           epsilon=epsilon, out=self.out, svg=self.svg)
        if self.name == "sweep-power":
            epsilon = rng.choice(EPSILONS)
            argv = ("rate-vs-power", "--epsilon", repr(epsilon), "--out", self.out)
            return Command(argv, "rate-vs-power", epsilon=epsilon, out=self.out)
        return self._verify(rng.randrange(2 ** 31))

    def _verify(self, mc_seed: int, trials: int = 0) -> Command:
        argv = ("verify", "--seed", str(mc_seed), "--out", self.report)
        if trials:
            argv += ("--trials", str(trials))
        return Command(argv, "verify", channel="two-state", mc_seed=mc_seed, trials=trials,
                       out=self.report)
