"""Seeded instance generators for the benchmark experiments.

Two factorial schemes are provided (a horizon/distribution sweep and a
parameter-fluctuation sweep) plus the fixed 12-period desk instance. Each
exogenous field draws from its own named random stream, so toggling one
factor never reshuffles the draws of another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .model import Instance, InputError

# the menu of each Table-2 factor, in the grid's lexicographic order
_TABLE2_MENUS = {
    "T": (12, 24, 36, 48, 60, 72),
    "demand_mode": ("exponential", "normal", "uniform"),
    "cost_mode": ("constant", "seasonal"),
    "price_mode": ("uniform", "seasonal"),
    "capital_mode": ("two_periods", "three_periods"),
    "loan_mode": ("none", "loan"),
    "beta": (0.0, 0.10, 0.50),
}

_LEVELS = ("low", "high")
# the factors of the Table-5 design, each at a low and a high level
TABLE5_FACTORS = ("demand_fluc", "cost_fluc", "holding_fluc", "price_fluc",
                  "capital_level", "rate_level", "beta_level")
# seeds drawn for each factor combination of the Table-5 grid
TABLE5_REPS = 10

# stream ids keep each field's draws independent of the other fields
_STREAMS = {"demand": 1, "price": 2, "cost": 3, "holding": 4}


class ConfigError(InputError):
    """Out-of-menu generator configuration."""


def _field_rng(seed: int, stream: str) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=(_STREAMS[stream],))
    return np.random.default_rng(ss)


def _truncated_normal(rng: np.random.Generator, mu: float, sigma: float,
                      size: int, strict_positive: bool = False) -> np.ndarray:
    out = np.empty(size)
    for i in range(size):
        val = rng.normal(mu, sigma)
        while val < 0 or (strict_positive and val <= 0):
            val = rng.normal(mu, sigma)
        out[i] = val
    return out


def _seasonal(base: float, amp: float, T: int) -> np.ndarray:
    t = np.arange(1, T + 1)
    return np.round(base + amp * np.sin(2 * math.pi * t / 12.0), 2)


@dataclass(frozen=True)
class Table2Config:
    T: int
    demand_mode: str
    cost_mode: str
    price_mode: str
    capital_mode: str
    loan_mode: str
    beta: float
    seed: int

    def __post_init__(self):
        for name, allowed in _TABLE2_MENUS.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name}={value!r} not in {allowed}")


@dataclass(frozen=True)
class Table5Config:
    """Seven two-level factors; horizon, loan size/length and setup are fixed."""

    demand_fluc: str
    cost_fluc: str
    holding_fluc: str
    price_fluc: str
    capital_level: str
    rate_level: str
    beta_level: str
    seed: int

    def __post_init__(self):
        for name in TABLE5_FACTORS:
            if getattr(self, name) not in _LEVELS:
                raise ConfigError(f"{name} must be 'low' or 'high'")


def gen_table1(Bc: float, BL: float = 0.0, TL: int = 0, r: float = 0.0) -> Instance:
    """The fixed 12-period desk instance; capital and loan come from the caller."""
    return Instance(
        T=12,
        p=[21, 22, 20, 15, 10, 8, 5, 10, 18, 10, 14, 18],
        c=[5, 13, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10],
        h=[10, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        s=[100] * 12,
        d=[30, 45, 50, 55, 45, 55, 90, 80, 90, 65, 80, 70],
        Bc=Bc, BL=BL, TL=TL, r=r, beta=0.5,
    )


def gen_table2(cfg: Table2Config) -> Instance:
    T = cfg.T
    rng_d = _field_rng(cfg.seed, "demand")
    if cfg.demand_mode == "exponential":
        d = rng_d.exponential(150.0, T)
    elif cfg.demand_mode == "normal":
        d = _truncated_normal(rng_d, 150.0, 40.0, T)
    else:
        d = 30.0 + 10.0 * rng_d.integers(0, 25, T)

    if cfg.cost_mode == "constant":
        c = np.full(T, 13.0)
        h = np.full(T, 1.0)
    else:
        c = _seasonal(13.0, 3.0, T)
        h = _seasonal(1.0, 0.5, T)

    if cfg.price_mode == "uniform":
        rng_p = _field_rng(cfg.seed, "price")
        p = rng_p.choice([15.0, 20.0, 25.0], T)
    else:
        p = _seasonal(20.0, 5.0, T)

    s = np.full(T, 1000.0)
    k = 2 if cfg.capital_mode == "two_periods" else 3
    Bc = float(s[0] + c[0] * d[:k].sum())
    if cfg.loan_mode == "loan":
        BL, TL, r = 2000.0, 6, 0.05
    else:
        BL, TL, r = 0.0, 0, 0.0
    return Instance(T=T, d=d, p=p, c=c, h=h, s=s, Bc=Bc,
                    BL=BL, TL=TL, r=r, beta=cfg.beta)


def gen_table5(cfg: Table5Config) -> Instance:
    T = 12
    sig = {"low": 10.0, "high": 50.0}[cfg.demand_fluc]
    d = _truncated_normal(_field_rng(cfg.seed, "demand"), 150.0, sig, T)
    sig = {"low": 1.0, "high": 5.0}[cfg.cost_fluc]
    c = _truncated_normal(_field_rng(cfg.seed, "cost"), 13.0, sig, T,
                          strict_positive=True)
    sig = {"low": 0.5, "high": 2.5}[cfg.holding_fluc]
    h = _truncated_normal(_field_rng(cfg.seed, "holding"), 5.0, sig, T)
    sig = {"low": 1.0, "high": 5.0}[cfg.price_fluc]
    p = _truncated_normal(_field_rng(cfg.seed, "price"), 20.0, sig, T)
    s = np.full(T, 1000.0)
    if cfg.capital_level == "low":
        Bc = float(s[0] + c[0] * d[:2].sum())
    else:
        Bc = float(s[0] + c[0] * d[:5].sum())
    r = {"low": 0.02, "high": 0.05}[cfg.rate_level]
    beta = {"low": 0.10, "high": 0.50}[cfg.beta_level]
    return Instance(T=T, d=d, p=p, c=c, h=h, s=s, Bc=Bc,
                    BL=2000.0, TL=6, r=r, beta=beta)


def _derive_seed(master_seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master_seed) & (2**64 - 1),
                                spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def grid_table2(master_seed: int) -> list:
    """Full factorial grid (864 configs) in documented lexicographic order:
    T, demand, cost, price, capital, loan, beta."""
    combos = product(*_TABLE2_MENUS.values())
    return [Table2Config(**dict(zip(_TABLE2_MENUS, levels)),
                         seed=_derive_seed(master_seed, idx))
            for idx, levels in enumerate(combos)]


def grid_table5(master_seed: int) -> list:
    """2^7 factor combinations x ``TABLE5_REPS`` seeds (1280 configs),
    ordered by factor combination then replicate."""
    configs = []
    combos = product(_LEVELS, repeat=len(TABLE5_FACTORS))
    for idx, levels in enumerate(combos):
        for rep in range(TABLE5_REPS):
            configs.append(Table5Config(*levels,
                                        seed=_derive_seed(master_seed, idx, rep)))
    return configs


def instance_filename(scheme: str, index: int, seed: int) -> str:
    return f"{scheme}-{index:04d}-{seed}.json"


def gen_random_small(seed: int, T: int, beta: float,
                     constant_c: bool = False, with_loan: bool = False) -> Instance:
    """Small random instances for oracle cross-checks (desk-scale testing)."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed) & (2**64 - 1), spawn_key=(99,)))
    d = _truncated_normal(rng, 150.0, 40.0, T)
    # unit costs stay below the price menu, matching the benchmark economics
    if constant_c:
        c = np.full(T, float(rng.uniform(8.0, 14.0)))
    else:
        c = _truncated_normal(rng, 11.0, 1.5, T, strict_positive=True)
    h = _truncated_normal(rng, 1.5, 1.0, T)
    p = rng.choice([15.0, 20.0, 25.0], T)
    s = np.full(T, float(rng.uniform(100.0, 400.0)))
    Bc = float(s[0] + c[0] * d[:2].sum() * rng.uniform(0.4, 1.2))
    if with_loan:
        BL = float(rng.uniform(100.0, 500.0))
        TL = int(rng.integers(1, T + 1))
        r = float(rng.uniform(0.0, 0.1))
    else:
        BL, TL, r = 0.0, 0, 0.0
    return Instance(T=T, d=d, p=p, c=c, h=h, s=s, Bc=Bc,
                    BL=BL, TL=TL, r=r, beta=beta)
