"""Seeded NetFlow-v2-shaped inputs for the benchmark workloads.

Each workload gets one CSV and one experiment config, written side by side.
The columns follow the NetFlow-v2 feature set (NF-UNSW-NB15-v2 and
siblings): IP and port identifiers, the PROTOCOL and L7_PROTO categoricals,
heavy-tailed numeric features of which half are integer counters, and the
Label/Attack pair. Rows are benign-majority. Each class draws a latent
vector per row; attack classes sit away from benign traffic, and one
far-shifted class sits beyond benign on the other side, so a model that
never saw it files it as benign and its train/test distance is the largest.

Only the seed varies between inputs of one workload: row counts, class
sizes and column shapes are fixed, so the work per run stays the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENIGN = "Benign"
SHIFTED = "Fuzzers"
ATTACKS = (
    "Exploits", "Reconnaissance", "DoS", "Generic", "Shellcode",
    "Backdoor", "Analysis", "Worms", SHIFTED,
)

IDENTIFIERS = ("IPV4_SRC_ADDR", "L4_SRC_PORT", "IPV4_DST_ADDR", "L4_DST_PORT")
CATEGORICALS = ("PROTOCOL", "L7_PROTO")
NUMERICS = (
    "IN_BYTES", "IN_PKTS", "OUT_BYTES", "OUT_PKTS", "TCP_FLAGS", "FLOW_DURATION_MILLISECONDS",
    "MIN_TTL", "MAX_TTL", "LONGEST_FLOW_PKT", "SHORTEST_FLOW_PKT", "CLIENT_TCP_FLAGS",
    "SERVER_TCP_FLAGS", "DURATION_IN", "DURATION_OUT", "MIN_IP_PKT_LEN", "MAX_IP_PKT_LEN",
    "SRC_TO_DST_SECOND_BYTES", "DST_TO_SRC_SECOND_BYTES", "RETRANSMITTED_IN_BYTES",
    "RETRANSMITTED_IN_PKTS", "RETRANSMITTED_OUT_BYTES", "RETRANSMITTED_OUT_PKTS",
    "SRC_TO_DST_AVG_THROUGHPUT", "DST_TO_SRC_AVG_THROUGHPUT", "NUM_PKTS_UP_TO_128_BYTES",
    "NUM_PKTS_128_TO_256_BYTES", "NUM_PKTS_256_TO_512_BYTES", "NUM_PKTS_512_TO_1024_BYTES",
    "NUM_PKTS_1024_TO_1514_BYTES", "TCP_WIN_MAX_IN", "TCP_WIN_MAX_OUT", "ICMP_TYPE",
    "ICMP_IPV4_TYPE", "DNS_QUERY_ID", "DNS_QUERY_TYPE", "DNS_TTL_ANSWER", "FTP_COMMAND_RET_CODE",
)
LABEL, ATTACK = "Label", "Attack"

# Latent class centres. Benign sits at 0 with spread 1. Attacks spread 0.3
# and share a signature: they sit at +4 on every other numeric feature and
# near 0 on the rest, so a held-out attack still looks like the attacks the
# model saw. The shifted class has no signature but sits at +2.5 on the
# other features, where no trained class goes: models file it as benign, and
# it moves the train/test distance most. Non-shifted attacks then all reach
# a Z-DR of 100 under the forest, so the rank correlation is negative for
# every seed, which the output check relies on.
_OFFSET, _SHIFTED_OFFSET, _ATTACK_SPREAD = 4.0, 2.5, 0.3

_PROTOCOLS = ("6", "17", "1")
_L7 = ("7.0", "91.0", "5.0", "0.0", "188.0", "7.178", "92.0", "131.7")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what to generate and how to run it."""

    name: str
    command: str  # "run" or "wd"
    rows: int
    n_columns: int  # CSV columns, Label and Attack included
    n_attacks: int
    config: dict = field(default_factory=dict)

    @property
    def attacks(self) -> tuple[str, ...]:
        # the shifted class is always present, the others fill up in order
        return ATTACKS[: self.n_attacks - 1] + (SHIFTED,)

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(self.config["models"]) if self.command == "run" else ()

    @property
    def operations(self) -> int:
        """(model, scenario, fold) jobs of a run, or (class, fold) distances of a wd."""
        k = self.config.get("k", 5)
        if self.command == "run":
            return len(self.models) * (self.n_attacks + 1) * k
        return self.n_attacks * k


# The wd files have a fifth of the rows of the desk-scale files they stand
# for (200k and 60k), so that a run takes seconds and several fit in one
# measurement without much memory. zeroday-run is the paper's full matrix
# (both models, 100 jobs). It is not in BENCHMARK.json: with the default
# worker count, each pool worker's BLAS threads compete for the CPUs, and
# its wall time swings by 2x from run to run. zeroday-forest keeps the rest
# of it, and is steady.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zeroday-run", "run", rows=1000, n_columns=16, n_attacks=9,
            config={
                "models": ["forest", "mlp"], "k": 5, "save_models": True,
                "forest": {"n_trees": 10}, "mlp": {"epochs": 5, "learning_rate": 0.1},
            },
        ),
        Workload(
            "zeroday-forest", "run", rows=6000, n_columns=16, n_attacks=9,
            config={"models": ["forest"], "k": 5, "save_models": True, "forest": {"n_trees": 10}},
        ),
        Workload("wd-ingest", "wd", rows=40_000, n_columns=45, n_attacks=3, config={"k": 5}),
        Workload(
            "wd-trainonly", "wd", rows=12_000, n_columns=18, n_attacks=9,
            config={"k": 5, "fit_scope": "train-only"},
        ),
    )
}


def columns_for(n_columns: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(numeric names, every CSV column in file order) for a column count."""
    n_numeric = n_columns - len(IDENTIFIERS) - len(CATEGORICALS) - 2
    if not 1 <= n_numeric <= len(NUMERICS):
        raise ValueError(f"{n_columns} columns leave {n_numeric} numeric ones")
    numerics = NUMERICS[:n_numeric]
    return numerics, IDENTIFIERS + CATEGORICALS + numerics + (LABEL, ATTACK)


def class_sizes(rows: int, attacks: tuple[str, ...]) -> dict[str, int]:
    """Benign-majority class sizes; the shifted class is the largest attack."""
    weights = np.array([0.5 ** (i % 4) + 0.25 for i in range(len(attacks))])
    weights[-1] = weights.max() * 1.5
    attack_rows = rows * 2 // 5
    sizes = np.floor(weights / weights.sum() * attack_rows).astype(int)
    out = {BENIGN: rows - int(sizes.sum())}
    out.update({name: int(n) for name, n in zip(attacks, sizes)})
    return out


def _column_shapes(n_numeric: int) -> tuple[np.ndarray, np.ndarray]:
    # fixed per column, independent of the seed: log-scale location and
    # latent loading of each numeric feature
    rng = np.random.default_rng(12345)
    return rng.uniform(1.0, 6.0, n_numeric), rng.uniform(0.5, 0.9, n_numeric)


def _class_centres(n_features: int, attacks: tuple[str, ...]) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(54321)
    signature = np.arange(n_features) % 2 == 0
    centres = {BENIGN: np.zeros(n_features)}
    for name in attacks:
        if name == SHIFTED:
            centre = np.where(signature, 0.0, _SHIFTED_OFFSET)
        else:
            centre = np.where(signature, _OFFSET, 0.0)
        centres[name] = centre + rng.uniform(-0.5, 0.5, n_features)
    return centres


def _numeric_cells(name: str, z: np.ndarray, loc: float, scale: float, integer: bool) -> list[str]:
    if name in ("MIN_TTL", "MAX_TTL"):
        # bounded, roughly linear in the latent value, like real TTLs
        return np.clip(np.rint(64 + 40 * z), 0, 255).astype(np.int64).astype(str).tolist()
    values = np.exp(loc + scale * z)
    if integer:
        return np.floor(values).astype(np.int64).astype(str).tolist()
    return [f"{v:.3f}" for v in values]


def generate_csv(workload: Workload, seed: int) -> tuple[str, list[dict]]:
    """CSV text and schema column list for one workload and seed."""
    numerics, header = columns_for(workload.n_columns)
    attacks = workload.attacks
    sizes = class_sizes(workload.rows, attacks)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    classes = np.concatenate([np.full(n, name, dtype=object) for name, n in sizes.items()])
    order = rng.permutation(classes.size)
    classes = classes[order]
    n = classes.size
    is_benign = classes == BENIGN
    is_shifted = classes == SHIFTED

    centres = _class_centres(len(numerics), attacks)
    latent = np.empty((n, len(numerics)))
    for name in sizes:
        rows = classes == name
        spread = 1.0 if name == BENIGN else _ATTACK_SPREAD
        latent[rows] = centres[name] + rng.normal(0.0, spread, size=(int(rows.sum()), len(numerics)))

    cells: dict[str, list[str]] = {}
    hosts = rng.integers(0, 256, size=(n, 2))
    cells["IPV4_SRC_ADDR"] = [
        f"192.168.{a}.{b}" if ok else f"175.45.176.{b % 4}"
        for a, b, ok in zip(hosts[:, 0], hosts[:, 1], is_benign | is_shifted)
    ]
    cells["IPV4_DST_ADDR"] = [f"149.171.126.{b % 20}" for b in hosts[:, 1] // 3]
    cells["L4_SRC_PORT"] = rng.integers(1024, 65536, n).astype(str).tolist()
    cells["L4_DST_PORT"] = rng.choice(np.array(["80", "443", "53", "22", "21", "25", "111", "3306"]), n).tolist()

    # categoricals: the shifted class looks like benign traffic here
    attack_like = ~(is_benign | is_shifted)
    proto_p = np.where(attack_like[:, None], [0.9, 0.08, 0.02], [0.7, 0.25, 0.05])
    proto_draw = (rng.random(n)[:, None] > np.cumsum(proto_p, axis=1)).sum(axis=1)
    cells["PROTOCOL"] = [_PROTOCOLS[i] for i in proto_draw]
    l7_draw = np.where(attack_like, rng.integers(0, 4, n), rng.integers(2, len(_L7), n))
    cells["L7_PROTO"] = [_L7[i] for i in l7_draw]

    locs, scales = _column_shapes(len(numerics))
    for j, name in enumerate(numerics):
        cells[name] = _numeric_cells(name, latent[:, j], locs[j], scales[j], integer=j % 2 == 0)
    cells[LABEL] = np.where(is_benign, "0", "1").tolist()
    cells[ATTACK] = classes.tolist()

    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*(cells[c] for c in header)))
    schema = (
        [{"name": c, "kind": "identifier"} for c in IDENTIFIERS]
        + [{"name": c, "kind": "categorical"} for c in CATEGORICALS]
        + [{"name": c, "kind": "numeric"} for c in numerics]
        + [{"name": LABEL, "kind": "binary_label"}, {"name": ATTACK, "kind": "attack_class"}]
    )
    return "\n".join(lines) + "\n", schema


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write flows.csv and config.json for one workload and seed; returns the config path."""
    text, schema = generate_csv(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "flows.csv").write_text(text, encoding="utf-8")
    config = {
        "dataset": "flows.csv",
        "benign_name": BENIGN,
        "columns": schema,
        "seed": seed,
        "output_dir": "out",
        **workload.config,
    }
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
