"""Seeded input generators for the benchmark workloads.

Everything here is self-contained: it imports neither ``llcount`` nor the
test-suite generators, so a change to the program or to its tests cannot
change the benchmark's inputs.  The shapes of the instances (clause counts,
qubit counts, supports, ranks) are fixed by the workload definition;
``--seed`` draws the values inside those shapes (clause signs, projector
bases and rotations).  The cost of a pass therefore does not depend on the
seed, while the answers do.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("cnf-chain", "qsat-dense")


@dataclass
class Call:
    """One CLI invocation of a pass, with the outcome it must produce.

    ``delta_from`` names an earlier ``check`` call of the same pass whose
    reported ``suggested_delta`` is appended as ``--delta`` at run time.
    """

    id: str
    input: str
    argv: list[str]
    expect_exit: int = 0
    delta_from: str | None = None


@dataclass
class Workload:
    """Calls of one pass plus the generated instances, keyed by input id."""

    name: str
    seed: int
    calls: list[Call] = field(default_factory=list)
    instances: dict = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)

    def add_input(self, input_id: str, instance, text: str, suffix: str) -> str:
        path = input_id + suffix
        self.instances[input_id] = instance
        self.files[path] = text
        return path

    def write(self, directory: Path) -> Path:
        """Write every input file and the call manifest; return the manifest."""
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")
        manifest = directory / "manifest.json"
        manifest.write_text(json.dumps(
            {"workload": self.name, "seed": self.seed,
             "calls": [vars(c) for c in self.calls]}, indent=1))
        return manifest


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # String seeds hash with SHA-512, so this is stable across processes.
    return random.Random(f"{workload}/{seed}/{part}")


def _np_rng(rng: random.Random) -> np.random.Generator:
    return np.random.default_rng(rng.getrandbits(64))


# ---------------------------------------------------------------------------
# cnf-chain

@dataclass(frozen=True)
class CnfInstance:
    """A chain or ring of k-clauses; neighbours share ``share`` variables."""

    shape: str
    k: int
    share: int
    variable_count: int
    clauses: tuple[tuple[int, ...], ...]


def _signed(rng: random.Random, variables) -> tuple[int, ...]:
    return tuple(v if rng.random() < 0.5 else -v for v in variables)


def chain_cnf(rng: random.Random, n_clauses: int, k: int = 12,
              share: int = 6) -> CnfInstance:
    step = k - share
    clauses = tuple(_signed(rng, range(i * step + 1, i * step + k + 1))
                    for i in range(n_clauses))
    return CnfInstance("chain", k, share, step * n_clauses + share, clauses)


def ring_cnf(rng: random.Random, n_clauses: int, k: int = 12,
             share: int = 6) -> CnfInstance:
    step = k - share
    n = step * n_clauses
    clauses = tuple(_signed(rng, [(i * step + j) % n + 1 for j in range(k)])
                    for i in range(n_clauses))
    return CnfInstance("ring", k, share, n, clauses)


def dimacs(f: CnfInstance) -> str:
    lines = [f"p cnf {f.variable_count} {len(f.clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in f.clauses)
    return "\n".join(lines) + "\n"


# (shape, clauses, extra flags); the 200-clause chain has 1206 variables and
# so exercises the count overflow past 1024 variables.
CNF_COUNT_CALLS = (
    ("chain", 20, ()), ("chain", 50, ()), ("chain", 75, ()), ("chain", 100, ()),
    ("chain", 150, ()), ("chain", 200, ()),
    ("ring", 20, ()), ("ring", 60, ()), ("ring", 100, ()),
    ("chain", 40, ("--exact-rational",)), ("ring", 40, ("--exact-rational",)),
    ("chain", 50, ("--epsilon", "0.01")),
)
CNF_CHECK_CLAUSES = 3000


def build_cnf_chain(seed: int) -> Workload:
    w = Workload("cnf-chain", seed)
    rng = _rng(w.name, seed, "signs")
    for shape, n, flags in CNF_COUNT_CALLS:
        input_id = f"{shape}{n}" + ("-" + flags[0].lstrip("-") if flags else "")
        f = (chain_cnf if shape == "chain" else ring_cnf)(rng, n)
        path = w.add_input(input_id, f, dimacs(f), ".cnf")
        w.calls.append(Call(f"count-sat:{input_id}", input_id,
                            ["count-sat", path, *flags]))
    f = chain_cnf(rng, CNF_CHECK_CLAUSES)
    input_id = f"chain{CNF_CHECK_CLAUSES}"
    path = w.add_input(input_id, f, dimacs(f), ".cnf")
    w.calls.append(Call(f"check:{input_id}", input_id, ["check", path]))
    return w


# ---------------------------------------------------------------------------
# qsat-dense

@dataclass(frozen=True)
class ProjectorFamily:
    """Local projectors on a register of qubits: (support, matrix) pairs."""

    qudit_count: int
    projectors: tuple[tuple[tuple[int, ...], np.ndarray], ...]


def projector_spec(fam: ProjectorFamily) -> str:
    lines = ["d 2", f"qudits {fam.qudit_count}"]
    for support, matrix in fam.projectors:
        lines += ["projector", "support " + " ".join(map(str, support)), "matrix"]
        flat = np.ascontiguousarray(matrix, dtype=np.complex128).view(np.float64)
        lines.extend(" ".join(map(repr, row)) for row in flat.tolist())
        lines.append("end")
    return "\n".join(lines) + "\n"


def diag_projector(rng: random.Random, qubits: int, rank: int) -> np.ndarray:
    side = 2 ** qubits
    m = np.zeros((side, side), dtype=complex)
    for i in rng.sample(range(side), rank):
        m[i, i] = 1.0
    return m


def dense_projector(rng: random.Random, qubits: int, rank: int) -> np.ndarray:
    side = 2 ** qubits
    npr = _np_rng(rng)
    q, _ = np.linalg.qr(npr.normal(size=(side, rank))
                        + 1j * npr.normal(size=(side, rank)))
    return q @ q.conj().T


def _local_unitary(npr: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(npr.normal(size=(2, 2)) + 1j * npr.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugate(matrix: np.ndarray, support, unitaries: dict) -> np.ndarray:
    big = np.array([[1.0 + 0j]])
    for q in support:
        big = np.kron(big, unitaries[q])
    return big @ matrix @ big.conj().T


def overlapping_pair(rng: random.Random, total: int, support_size: int,
                     rank: int, conjugated: bool = False) -> ProjectorFamily:
    """Two commuting projectors on the first and last ``support_size`` qubits;
    conjugating both by the same one-qubit unitaries makes them dense."""
    s1 = tuple(range(support_size))
    s2 = tuple(range(total - support_size, total))
    m1 = diag_projector(rng, support_size, rank)
    m2 = diag_projector(rng, support_size, rank)
    if conjugated:
        npr = _np_rng(rng)
        us = {q: _local_unitary(npr) for q in range(total)}
        m1 = _conjugate(m1, s1, us)
        m2 = _conjugate(m2, s2, us)
    return ProjectorFamily(total, ((s1, m1), (s2, m2)))


def disjoint_family(rng: random.Random, blocks: int, block_qubits: int,
                    rank: int = 1, diagonal: bool = True) -> ProjectorFamily:
    make = diag_projector if diagonal else dense_projector
    return ProjectorFamily(blocks * block_qubits, tuple(
        (tuple(range(b * block_qubits, (b + 1) * block_qubits)),
         make(rng, block_qubits, rank)) for b in range(blocks)))


def single_projector(rng: random.Random, qubits: int, rank: int, dense: bool,
                     total: int | None = None) -> ProjectorFamily:
    make = dense_projector if dense else diag_projector
    return ProjectorFamily(qubits if total is None else total,
                           ((tuple(range(qubits)), make(rng, qubits, rank)),))


def rotate(rng: random.Random, matrix: np.ndarray, angle: float) -> np.ndarray:
    """Conjugate by exp(i*angle*H) for a random Hermitian H of unit norm."""
    npr = _np_rng(rng)
    side = matrix.shape[0]
    h = npr.normal(size=(side, side)) + 1j * npr.normal(size=(side, side))
    h = (h + h.conj().T) / 2.0
    h /= np.linalg.norm(h, 2)
    eigval, eigvec = np.linalg.eigh(h)
    u = (eigvec * np.exp(1j * angle * eigval)) @ eigvec.conj().T
    return u @ matrix @ u.conj().T


def noncommuting_pair(rng: random.Random, angle: float, total: int = 8,
                      support_size: int = 7) -> ProjectorFamily:
    base = overlapping_pair(rng, total, support_size, 1)
    (s1, m1), (s2, m2) = base.projectors
    return ProjectorFamily(total, ((s1, m1), (s2, rotate(rng, m2, angle))))


def commuting_families(rng: random.Random) -> list[ProjectorFamily]:
    """21 commuting families on up to 12 qubits; the largest dense operator
    has D = 2^10 (the 10-qubit overlapping pair)."""
    out = [overlapping_pair(rng, total, 7, 1) for total in (8, 9, 10, 8)]
    out += [overlapping_pair(rng, 9, 8, 2) for _ in range(2)]
    out += [overlapping_pair(rng, 9, 7, 1, conjugated=True) for _ in range(3)]
    out += [disjoint_family(rng, blocks, bq)
            for blocks, bq in ((4, 2), (5, 2), (6, 2), (4, 3), (3, 4))]
    out.append(disjoint_family(rng, 3, 2, diagonal=False))
    out.append(disjoint_family(rng, 6, 2))
    out += [single_projector(rng, qb, 1, dense=False) for qb in (7, 8)]
    out.append(single_projector(rng, 8, 2, dense=False))
    out.append(single_projector(rng, 7, 1, dense=True))
    out.append(ProjectorFamily(3, ()))
    return out


def detectability_t1_families(rng: random.Random) -> list[ProjectorFamily]:
    """Ten families on at most 8 qubits meeting the T=1 rank condition."""
    out = [overlapping_pair(rng, 8, 7, 1, conjugated=(i % 2 == 0))
           for i in range(4)]
    out += [disjoint_family(rng, blocks, 2, diagonal=False) for blocks in (3, 4)]
    out.append(disjoint_family(rng, 2, 3, rank=2))
    out += [single_projector(rng, qb, 1, dense=True) for qb in (7, 8)]
    out.append(single_projector(rng, 8, 2, dense=False))
    return out


def detectability_t2_families(rng: random.Random) -> list[ProjectorFamily]:
    """Ten isolated fat projectors: at T=2 the rank condition admits only
    one nonzero projector of normalized rank at most (1/(3e^(1+delta)))^2."""
    out = [single_projector(rng, 7, 1, dense=True) for _ in range(5)]
    out += [single_projector(rng, 8, 1, dense=True) for _ in range(3)]
    out.append(single_projector(rng, 8, 2, dense=False))
    out.append(single_projector(rng, 7, 1, dense=False, total=8))
    return out


NONCOMMUTING_ANGLES = tuple(0.02 + 0.01 * i for i in range(10))


def build_qsat_dense(seed: int) -> Workload:
    w = Workload("qsat-dense", seed)
    rng = _rng(w.name, seed, "projectors")

    def add(prefix: str, i: int, fam: ProjectorFamily) -> tuple[str, str]:
        input_id = f"{prefix}{i:02d}"
        return input_id, w.add_input(input_id, fam, projector_spec(fam), ".proj")

    for i, fam in enumerate(commuting_families(rng)):
        input_id, path = add("comm", i, fam)
        w.calls.append(Call(f"qsat-commuting:{input_id}", input_id,
                            ["qsat-commuting", path]))
    for i, angle in enumerate(NONCOMMUTING_ANGLES):
        input_id, path = add("noncomm", i, noncommuting_pair(rng, angle))
        check_id = f"check:{input_id}"
        w.calls.append(Call(check_id, input_id, ["check", path], expect_exit=2))
        w.calls.append(Call(f"qsat-general:{input_id}", input_id,
                            ["qsat-general", path], delta_from=check_id))
    for t, families in ((1, detectability_t1_families(rng)),
                        (2, detectability_t2_families(rng))):
        for i, fam in enumerate(families):
            input_id, path = add(f"detect-t{t}-", i, fam)
            w.calls.append(Call(f"detect-t{t}:{input_id}", input_id,
                                ["qsat-general", path, "--mode", "detectability",
                                 "--t", str(t)]))
    return w


BUILDERS = {"cnf-chain": build_cnf_chain, "qsat-dense": build_qsat_dense}


def build(workload: str, seed: int) -> Workload:
    return BUILDERS[workload](seed)

