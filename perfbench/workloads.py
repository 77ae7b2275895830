"""The three workloads: generated inputs, their operations and references.

Every operation is one command line, run in process through
qmetric.cli.main, plus a reference check of its exit code and output, and
a traced mirror that calls the public functions the command calls, one
span around each.  The mirror's result is compared with the untraced one.

Each workload comes from one numpy Generator seeded by the benchmark seed.
Every seed gives the same list of operations; only the numbers in the
documents, the point pairs and the search seeds change.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qmetric import (
    AxiomReport,
    BiElement,
    MetricCandidate,
    PureState,
    SearchConfig,
    State,
    ToleranceConfig,
    as_shape,
    certify,
    check_alg_diag,
    check_alg_nondegenerate_sampled,
    check_diag_vanish,
    check_flip_symmetric,
    check_nondegenerate,
    check_positive,
    check_triangle,
    cli,
    conic_combine,
    direct_sum,
    exchange,
    feasibility_search,
    flip,
    from_finite_metric,
    lip_seminorm,
    metric_pseudo_inverse,
    mid_embed,
    min_eig,
    mk_distance,
    mult_map,
    op_norm,
    pure_state_bound,
    tensor_product,
    triangle_defect,
)

import reference as ref
from spans import Recorder

REP, ALG = "representation", "algebraic"
MODES = (REP, ALG)
WORKLOADS = ("verify-ladder", "search-small", "transport")

# Relative agreement demanded between a traced mirror and the untraced
# command.  Both run the same code, so this only absorbs a refactor that
# reorders floating-point work.
MIRROR_RTOL = 1e-9


class Mismatch(Exception):
    """An operation's output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def close(a, b, rtol: float = MIRROR_RTOL) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


@dataclass
class Op:
    """One closed-loop operation.

    check(exit_code, stdout) raises Mismatch or returns the facts of the
    untraced run; mirror(recorder) returns what compare(result, facts)
    matches against them.  probe, when set, makes standalone layer calls on
    the same input outside the operation span.
    """

    kind: str
    cls: str
    shape: tuple
    mode: str
    argv: list
    check: Callable[[int, str], dict]
    mirror: Callable[[Recorder], Any]
    compare: Callable[[Any, dict], None]
    probe: Callable[[Recorder], None] | None = None
    latency: bool = False
    throughput: bool = True


def call_cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Docs:
    """Writes generated input documents under one directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.count = 0

    def write(self, stem: str, doc: dict) -> str:
        self.count += 1
        path = self.root / f"{self.count:04d}-{stem}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def out(self, stem: str) -> str:
        self.count += 1
        return str(self.root / f"{self.count:04d}-{stem}.out.json")


def _parse(rec: Recorder, argv: list):
    """Build the command's parser and parse the operation's own argv."""
    with rec.span("cli.parse"):
        return cli.build_parser().parse_args(argv)


def _tolerances(args) -> ToleranceConfig:
    return ToleranceConfig(
        eq_tol=args.eq_tol,
        psd_tol=args.psd_tol,
        strict_floor=args.floor,
        sample_count=args.samples,
        seed=args.seed,
    )


def _records(report: dict) -> list:
    return [(r["axiom"], r["passed"], r["margin"]) for r in report["records"]]


def _compare_records(got: list, want: list) -> None:
    require(len(got) == len(want), f"mirror gave {len(got)} records, command {len(want)}")
    for (ax, ok, m), (ax2, ok2, m2) in zip(got, want):
        require(ax == ax2 and ok == ok2, f"mirror verdict {ax}={ok}, command {ax2}={ok2}")
        require(close(m, m2), f"mirror margin {ax}={m}, command {m2}")


# ---------------------------------------------------------------------------
# verify-ladder
# ---------------------------------------------------------------------------


def _mirror_checks(rec: Recorder, rho, cfg: ToleranceConfig, mode: str, cls: str) -> AxiomReport:
    """The checks of axioms.verify, one span each, in verify's order."""
    scale = op_norm(rho) or 1.0
    with rec.span("axioms.check_positive", cls=cls):
        r_i = check_positive(rho, cfg, scale)
    with rec.span("axioms.check_flip_symmetric", cls=cls):
        r_iv = check_flip_symmetric(rho, cfg, scale)
    with rec.span("axioms.check_triangle", cls=cls):
        r_v = check_triangle(rho, cfg, scale)
    if mode == REP:
        with rec.span("axioms.check_diag_vanish", cls=cls):
            r_ii = check_diag_vanish(rho, cfg, scale)
        with rec.span("axioms.check_nondegenerate", cls=cls):
            r_iii = check_nondegenerate(
                rho, cfg, scale, prerequisites_ok=r_i.passed and r_ii.passed
            )
    else:
        with rec.span("axioms.check_alg_diag", cls=cls):
            r_ii = check_alg_diag(rho, cfg, scale)
        with rec.span("axioms.check_alg_nondegenerate_sampled", cls=cls):
            r_iii = check_alg_nondegenerate_sampled(rho, cfg)
    return AxiomReport(mode=mode, shape=rho.shape, records=(r_i, r_ii, r_iii, r_iv, r_v), config=cfg)


def _algebra_probe(seen: dict, cls: str) -> Callable[[Recorder], None]:
    """Standalone algebra maps on the element the mirror just loaded."""

    def probe(rec: Recorder) -> None:
        rho = seen["rho"]
        with rec.span("algebra.validate", cls=cls):
            BiElement(rho.shape, rho.data)
        with rec.span("algebra.flip", cls=cls):
            flip(rho)
        with rec.span("algebra.mult_map", cls=cls):
            mult_map(rho)
        with rec.span("algebra.op_norm", cls=cls):
            op_norm(rho)
        with rec.span("algebra.min_eig", cls=cls):
            min_eig(rho)
        with rec.span("algebra.mid_embed", cls=cls):
            mid_embed(rho)
        with rec.span("axioms.triangle_defect", cls=cls):
            triangle_defect(rho)

    return probe


def _verify_op(docs: Docs, stem: str, blocks: tuple, arr: np.ndarray, mode: str, cls: str,
               expect: Callable[[int, dict], None]) -> Op:
    path = docs.write(stem, ref.matrix_doc(blocks, 2, arr))
    argv = ["verify", path, "--mode", mode, "--report", docs.out(stem + "-report"), "--json"]
    seen: dict = {}

    def check(code: int, out: str) -> dict:
        report = json.loads(out)
        expect(code, report)
        return {"record": _records(report)}

    def mirror(rec: Recorder):
        args = _parse(rec, argv)
        with rec.span("exchange.load_element", cls=cls):
            rho = seen["rho"] = exchange.load_element(args.path, expect_order=2)
        report = _mirror_checks(rec, rho, _tolerances(args), args.mode, cls)
        with rec.span("exchange.save_report", cls=cls):
            exchange.save_report(report, args.report)
        return [(r["axiom"], r["passed"], r["margin"]) for r in report.to_dict()["records"]]

    def compare(result, facts: dict) -> None:
        _compare_records(result, facts["record"])

    return Op("verify", cls, blocks, mode, argv, check, mirror, compare,
              probe=_algebra_probe(seen, cls), latency=cls == "small")


def _expect_classical(d: np.ndarray, mode: str) -> Callable[[int, dict], None]:
    want = ref.classical_axioms(d)
    pairs = [("i", "i"), ("iv", "iv"), ("v", "v")]
    pairs += [("ii", "ii"), ("iii", "iii")] if mode == REP else [("ii_alg", "ii")]

    def expect(code: int, report: dict) -> None:
        require(code == (0 if want["all"] else 1), f"exit {code}, reference says {want['all']}")
        require(report["passed"] == want["all"], "overall verdict disagrees with the reference")
        got = {r["axiom"]: r["passed"] for r in report["records"]}
        for axiom, key in pairs:
            require(got[axiom] == want[key], f"axiom {axiom}: {got[axiom]}, reference {want[key]}")

    return expect


def _expect_nogo(code: int, report: dict) -> None:
    """A candidate with an admissible two-level block must fail, at the triangle."""
    require(code == 1, f"exit {code} on a document with a two-level block")
    require(not report["passed"], "a document with a two-level block passed")
    require(any(r["axiom"] == "v" and not r["passed"] for r in report["records"]),
            "the triangle check passed on a two-level block")


def _construct_op(docs: Docs, stem: str, construction: str, inputs: list, expected: np.ndarray,
                  mode: str, cls: str, r: float | None = None) -> Op:
    """A construction from valid classical inputs: it must pass and equal `expected`."""
    n = expected.shape[0]
    out = docs.out(stem)
    argv = ["construct", construction, *inputs, "--mode", mode, "--out", out, "--quiet"]
    if r is not None:
        argv += ["--r", repr(r)]
    want = ref.embed_classical(expected)
    require(ref.classical_axioms(expected)["all"], f"{stem}: generated construction is not a metric")

    def check(code: int, _out: str) -> dict:
        require(code == 0, f"construction from valid inputs exited {code}")
        got = ref.doc_matrix(json.loads(Path(out).read_text()))
        require(got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-12),
                "constructed candidate differs from the reference construction")
        return {"matrix": got}

    def mirror(rec: Recorder):
        args = _parse(rec, argv)
        if construction == "from-metric":
            with rec.span("exchange.load_metric_space", cls=cls):
                space = exchange.load_metric_space(args.inputs[0])
            with rec.span("construct.from_finite_metric", cls=cls):
                cand = from_finite_metric(space)
        else:
            pair = []
            for p in args.inputs:
                with rec.span("exchange.load_element", cls=cls):
                    pair.append(MetricCandidate(exchange.load_element(p, expect_order=2)))
            with rec.span(f"construct.{_CONSTRUCTORS[construction].__name__}", cls=cls):
                if construction == "tensor":
                    cand = tensor_product(*pair, mode=args.mode)
                else:
                    cand = _CONSTRUCTORS[construction](*pair, args.r)
        report = _mirror_checks(rec, cand.rho, _tolerances(args), args.mode, cls)
        with rec.span("exchange.save_element", cls=cls):
            exchange.save_element(cand.rho, args.out)
        return report.passed, cand.rho.data

    def compare(result, facts: dict) -> None:
        passed, data = result
        require(passed, "mirrored construction failed verification")
        require(np.allclose(data, facts["matrix"], rtol=0, atol=1e-12),
                "mirrored construction differs from the command's output")

    return Op("construct", cls, (1,) * n, mode, argv, check, mirror, compare)


_CONSTRUCTORS = {"conic": conic_combine, "direct-sum": direct_sum, "tensor": tensor_product}


def _classical_doc(docs: Docs, stem: str, d: np.ndarray) -> str:
    return docs.write(stem, ref.matrix_doc((1,) * d.shape[0], 2, ref.embed_classical(d)))


def build_verify_ladder(rng: np.random.Generator, docs: Docs) -> list[Op]:
    ops: list[Op] = []
    # small class: classical n = 3..6, two of every ten planted to fail
    for n in (3, 4, 5, 6):
        for k in range(10):
            d = ref.random_metric(rng, n)
            if k == 8:
                d = ref.plant_triangle_violation(rng, d)
            elif k == 9:
                d = ref.plant_negativity(rng, d)
            for mode in MODES:
                ops.append(_verify_op(docs, f"c{n}-{k}", (1,) * n, ref.embed_classical(d), mode,
                                      "small", _expect_classical(d, mode)))
    # small class: shapes holding the admissible two-level block (no-go)
    def lam() -> float:
        return float(rng.uniform(0.2, 5.0))

    def cross() -> float:
        return float(rng.uniform(0.5, 4.0))

    block_docs = []
    for _ in range(4):
        block_docs.append(((2,), ref.m2_block(lam())))
    for _ in range(3):
        block_docs.append(((2, 2), ref.direct_sum_matrix(ref.m2_block(lam()), 2, ref.m2_block(lam()), 2, cross())))
        two = ref.embed_classical(ref.random_metric(rng, 2))
        block_docs.append(((2, 1, 1), ref.direct_sum_matrix(ref.m2_block(lam()), 2, two, 2, cross())))
        inner = ref.direct_sum_matrix(ref.m2_block(lam()), 2, ref.m2_block(lam()), 2, cross())
        block_docs.append(((2, 2, 2), ref.direct_sum_matrix(inner, 4, ref.m2_block(lam()), 2, cross())))
    for k, (blocks, arr) in enumerate(block_docs):
        stem = "b" + "".join(map(str, blocks)) + f"-{k}"
        for mode in MODES:
            ops.append(_verify_op(docs, stem, blocks, arr, mode, "small", _expect_nogo))
    # large class: the D^3 x D^3 triangle eigensolve dominates
    for n, k, mode in ((7, 0, REP), (8, 0, REP), (8, 1, ALG), (8, 2, REP), (9, 0, REP)):
        d = ref.random_metric(rng, n)
        if k == 2:
            d = ref.plant_triangle_violation(rng, d)
        ops.append(_verify_op(docs, f"c{n}-{k}", (1,) * n, ref.embed_classical(d), mode,
                              "large", _expect_classical(d, mode)))
    # constructions from valid classical inputs, small and large
    def from_metric(n: int, mode: str) -> Op:
        d = ref.random_metric(rng, n)
        space = docs.write(f"space{n}", ref.metric_space_doc(d))
        return _construct_op(docs, f"fm{n}", "from-metric", [space], d, mode, "small" if n <= 6 else "large")

    def conic(n: int, mode: str) -> Op:
        d1, d2 = ref.random_metric(rng, n), ref.random_metric(rng, n)
        r = float(rng.uniform(0.1, 3.0))
        inputs = [_classical_doc(docs, f"cc{n}a", d1), _classical_doc(docs, f"cc{n}b", d2)]
        return _construct_op(docs, f"conic{n}", "conic", inputs, d1 + r * d2, mode,
                             "small" if n <= 6 else "large", r)

    def dsum(n1: int, n2: int, mode: str) -> Op:
        d1, d2 = ref.random_metric(rng, n1), ref.random_metric(rng, n2)
        r = float(max(d1.max(), d2.max())) / 2.0 * float(rng.uniform(1.0, 2.0))
        full = np.full((n1 + n2, n1 + n2), r)
        full[:n1, :n1], full[n1:, n1:] = d1, d2
        inputs = [_classical_doc(docs, f"ds{n1}a", d1), _classical_doc(docs, f"ds{n2}b", d2)]
        return _construct_op(docs, f"dsum{n1}{n2}", "direct-sum", inputs, full, mode,
                             "small" if n1 + n2 <= 6 else "large", r)

    def tensor(n1: int, n2: int, mode: str) -> Op:
        d1, d2 = ref.random_metric(rng, n1), ref.random_metric(rng, n2)
        summed = (d1[:, None, :, None] + d2[None, :, None, :]).reshape(n1 * n2, n1 * n2)
        inputs = [_classical_doc(docs, f"t{n1}a", d1), _classical_doc(docs, f"t{n2}b", d2)]
        return _construct_op(docs, f"tensor{n1}{n2}", "tensor", inputs, summed, mode,
                             "small" if n1 * n2 <= 6 else "large")

    ops += [
        from_metric(3, REP), from_metric(5, ALG), conic(4, REP),
        dsum(2, 3, REP), dsum(2, 3, ALG), tensor(2, 3, REP), tensor(2, 3, ALG),
        from_metric(9, REP), conic(8, ALG), dsum(4, 4, REP), tensor(3, 3, REP),
    ]
    return ops


# ---------------------------------------------------------------------------
# search-small
# ---------------------------------------------------------------------------


def _search_op(docs: Docs, blocks: tuple, mode: str, cls: str, seed: int, restarts: int,
               max_iter: int) -> Op:
    stem = "s" + "".join(map(str, blocks))
    out = docs.out(f"{stem}-{mode[:3]}-{seed}")
    argv = ["search", "--shape", ",".join(map(str, blocks)), "--mode", mode,
            "--restarts", str(restarts), "--max-iter", str(max_iter), "--seed", str(seed),
            "--out", out, "--quiet"]
    cfg = SearchConfig(shape=blocks, max_iter=max_iter, restarts=restarts, seed=seed)

    def total_iterations(found: bool, restarts_run: int, iterations_run: int) -> int:
        # iterations_run counts only the reported restart
        if found:
            return (restarts_run - 1) * max_iter + iterations_run
        return restarts_run * max_iter

    def check(code: int, _out: str) -> dict:
        doc = json.loads(Path(out).read_text())
        found = doc["status"] == "candidate_found"
        require(doc["status"] in ("candidate_found", "no_convergence"), f"status {doc['status']}")
        require(code == (0 if found else 1), f"exit {code} with status {doc['status']}")
        require(not (found and blocks == (2,)), "a candidate was reported on the two-level shape")
        if found:
            arr = ref.doc_matrix(doc["candidate"])
            if all(n == 1 for n in blocks):
                n = len(blocks)
                require(np.count_nonzero(arr - np.diag(np.diag(arr))) == 0,
                        "classical candidate is not diagonal")
                dist = np.diag(arr).real.reshape(n, n)
                tol = 1e-6 * max(1.0, float(np.abs(dist).max()))
                require(ref.classical_axioms(dist, tol)["all"], "found candidate is not a metric")
            else:
                rho = BiElement(as_shape(blocks), arr)
                require(certify(rho, cfg, mode).passed, "found candidate does not re-verify")
        return {
            "record": (doc["status"], doc["iterations_run"], doc["restarts_run"], doc["best_residual"]),
            "iterations": total_iterations(found, doc["restarts_run"], doc["iterations_run"]),
        }

    def mirror(rec: Recorder):
        args = _parse(rec, argv)
        scfg = SearchConfig(
            shape=as_shape(tuple(int(p) for p in args.shape.split(","))),
            floor=args.eps,
            trace_target=args.trace_target,
            max_iter=args.max_iter,
            restarts=args.restarts,
            seed=args.seed,
            residual_tol=args.residual_tol,
            include_triangle=not args.drop_triangle,
        )
        with rec.span("search.feasibility_search", cls=cls, shape=list(blocks)) as attrs:
            outcome = feasibility_search(scfg, mode=args.mode)
            attrs["iterations"] = total_iterations(outcome.found, outcome.restarts_run, outcome.iterations_run)
            attrs["restarts"] = outcome.restarts_run
            attrs["found"] = outcome.found
        with rec.span("exchange.save_outcome", cls=cls):
            exchange.save_outcome(outcome, args.out)
        return (outcome.status, outcome.iterations_run, outcome.restarts_run, outcome.best_residual)

    def compare(result, facts: dict) -> None:
        want = facts["record"]
        require(result[:3] == tuple(want[:3]), f"mirrored search {result[:3]}, command {want[:3]}")
        require(close(result[3], want[3]), "mirrored search residual differs")

    return Op("search", cls, blocks, mode, argv, check, mirror, compare,
              latency=cls == "found" and blocks == (1, 1, 1, 1), throughput=cls == "stall")


STALL_BUDGETS = (((2,), 400), ((3,), 150), ((2, 1), 150))
STALL_JOBS = 4
# the slowest fifth of the times to a candidate needs ten jobs; more make a
# round so long that a run gets too few rounds to take a best time from
FIND_JOBS = 50


def build_search_small(rng: np.random.Generator, docs: Docs) -> list[Op]:
    def seed() -> int:
        return int(rng.integers(0, 2**31))

    ops = []
    for blocks, max_iter in STALL_BUDGETS:
        for mode in MODES:
            for _ in range(STALL_JOBS):
                ops.append(_search_op(docs, blocks, mode, "stall", seed(), 1, max_iter))
    for k in range(FIND_JOBS):
        ops.append(_search_op(docs, (1, 1, 1, 1), MODES[k % 2], "found", seed(), 4, 2000))
    for mode in MODES:
        ops.append(_search_op(docs, (1, 1, 1, 1, 1), mode, "found", seed(), 4, 2000))
    return ops


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def _distance_record(res: dict) -> tuple:
    return (res["lower"], res["upper"], res["converged"], res["iterations"])


def _distance_op(argv: list, blocks: tuple, cls: str, expect: Callable[[dict], None]) -> Op:
    argv = ["distance", *argv, "--json"]
    general = cls != "exact"
    seen: dict = {}

    def check(code: int, out: str) -> dict:
        require(code == 0, f"distance exited {code}")
        res = json.loads(out)
        require(not res["unbounded"] and res["lower"] is not None and res["upper"] is not None,
                "bracket is unbounded")
        require(0.0 <= res["lower"] <= res["upper"] + 1e-9 * max(1.0, res["upper"]),
                f"bracket [{res['lower']}, {res['upper']}] is not ordered")
        expect(res)
        return {"record": _distance_record(res)}

    def mirror(rec: Recorder):
        args = _parse(rec, argv)
        if args.classical:
            with rec.span("exchange.load_metric_space", cls=cls):
                space = exchange.load_metric_space(args.classical)
            with rec.span("construct.from_finite_metric", cls=cls):
                rho = from_finite_metric(space).rho
            n = space.n
            phi = State.classical(np.eye(n)[int(args.phi)])
            psi = State.classical(np.eye(n)[int(args.psi)])
        else:
            with rec.span("exchange.load_element", cls=cls):
                rho = exchange.load_element(args.rho, expect_order=2)
            with rec.span("exchange.load_state", cls=cls):
                phi = exchange.load_state(args.phi)
            with rec.span("exchange.load_state", cls=cls):
                psi = exchange.load_state(args.psi)
        seen["rho"] = rho
        with rec.span("lipschitz.mk_distance", cls=cls, path="general" if general else "lp") as attrs:
            res = mk_distance(phi, psi, rho, method=args.method, max_iter=args.max_iter)
            attrs["iterations"] = res.iterations
            attrs["gap_rel"] = (res.upper - res.lower) / res.upper if res.upper > 0 else 0.0
        return _distance_record(res.to_dict())

    def compare(result, facts: dict) -> None:
        want = facts["record"]
        require(result[2:] == want[2:], f"mirrored bracket flags {result[2:]}, command {want[2:]}")
        require(close(result[0], want[0]) and close(result[1], want[1]),
                f"mirrored bracket {result[:2]}, command {want[:2]}")

    probe = _pure_bound_probe(seen, blocks) if general else None
    return Op("distance", cls, blocks, "", argv, check, mirror, compare, probe=probe,
              latency=cls == "exact")


def _pure_bound_probe(seen: dict, blocks: tuple) -> Callable[[Recorder], None]:
    """Standalone pure_state_bound between the first vectors of blocks 0 and 1."""

    def probe(rec: Recorder) -> None:
        rho = seen["rho"]
        v = PureState(rho.shape, 0, np.eye(blocks[0])[0])
        w = PureState(rho.shape, 1, np.eye(blocks[1])[0])
        with rec.span("lipschitz.pure_state_bound"):
            bound = pure_state_bound(v, w, rho)
        require(bound >= 0.0, "negative pure-state bound")

    return probe


def _lipschitz_op(docs: Docs, rho_path: str, d: np.ndarray, values: np.ndarray) -> Op:
    n = d.shape[0]
    elem = docs.write(f"elem{n}", ref.matrix_doc((1,) * n, 1, np.diag(values)))
    argv = ["lipschitz", "--rho", rho_path, "--element", elem, "--json"]
    want = ref.lipschitz_constant(d, values)

    def check(code: int, out: str) -> dict:
        require(code == 0, f"lipschitz exited {code}")
        got = json.loads(out)["lip_seminorm"]
        require(abs(got - want) <= 1e-9, f"seminorm {got}, reference {want}")
        return {"record": got}

    def mirror(rec: Recorder):
        args = _parse(rec, argv)
        with rec.span("exchange.load_element", cls="exact"):
            rho = exchange.load_element(args.rho, expect_order=2)
        with rec.span("exchange.load_element", cls="exact"):
            a = exchange.load_element(args.element, expect_order=1)
        with rec.span("lipschitz.metric_pseudo_inverse"):
            pinv = metric_pseudo_inverse(rho)
        with rec.span("lipschitz.lip_seminorm"):
            return lip_seminorm(a, rho, pinv)

    def compare(result, facts: dict) -> None:
        require(close(result, facts["record"]), f"mirrored seminorm {result}, command {facts['record']}")

    return Op("lipschitz", "exact", (1,) * n, "", argv, check, mirror, compare, latency=True)


def _exact(value: float) -> Callable[[dict], None]:
    def expect(res: dict) -> None:
        require(abs(res["lower"] - value) <= 1e-6 and abs(res["upper"] - value) <= 1e-6,
                f"bracket [{res['lower']}, {res['upper']}], reference {value}")

    return expect


def _brackets(value: float) -> Callable[[dict], None]:
    def expect(res: dict) -> None:
        slack = 1e-9 * max(1.0, value)
        require(res["lower"] <= value + slack and value <= res["upper"] + slack,
                f"bracket [{res['lower']}, {res['upper']}] misses the exact {value}")

    return expect


def _ordered(_res: dict) -> None:
    """General shapes have no exact reference; the bracket order is checked for all."""


def build_transport(rng: np.random.Generator, docs: Docs) -> list[Op]:
    ops = []
    spaces = {}
    # exact class: LP distances between point masses and between mixed
    # classical states, and classical seminorms
    for n in range(3, 9):
        d = ref.random_metric(rng, n)
        space = docs.write(f"space{n}", ref.metric_space_doc(d))
        spaces[n] = (d, space)
        rho = _classical_doc(docs, f"rho{n}", d)
        for _ in range(6):
            i, j = map(int, rng.permutation(n)[:2])
            ops.append(_distance_op(["--classical", space, "--phi", str(i), "--psi", str(j)],
                                    (1,) * n, "exact", _exact(float(d[i, j]))))
        for _ in range(5):
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            phi = docs.write(f"p{n}", ref.state_doc((1,) * n, [np.array([[v]]) for v in p]))
            psi = docs.write(f"q{n}", ref.state_doc((1,) * n, [np.array([[v]]) for v in q]))
            ops.append(_distance_op(["--rho", rho, "--phi", phi, "--psi", psi], (1,) * n,
                                    "exact", _exact(ref.transport_lp_primal(d, p, q))))
        for _ in range(6):
            ops.append(_lipschitz_op(docs, rho, d, rng.standard_normal(n)))
    # general class: candidates holding two-level blocks, with state documents
    def lam() -> float:
        return float(rng.uniform(0.2, 5.0))

    def cross() -> float:
        return float(rng.uniform(0.5, 4.0))

    for blocks in ((2, 2), (2, 1, 1), (2, 2, 2)):
        for k in range(4):
            if blocks == (2, 2):
                arr = ref.direct_sum_matrix(ref.m2_block(lam()), 2, ref.m2_block(lam()), 2, cross())
            elif blocks == (2, 1, 1):
                two = ref.embed_classical(ref.random_metric(rng, 2))
                arr = ref.direct_sum_matrix(ref.m2_block(lam()), 2, two, 2, cross())
            else:
                inner = ref.direct_sum_matrix(ref.m2_block(lam()), 2, ref.m2_block(lam()), 2, cross())
                arr = ref.direct_sum_matrix(inner, 4, ref.m2_block(lam()), 2, cross())
            stem = "g" + "".join(map(str, blocks)) + f"-{k}"
            rho = docs.write(stem, ref.matrix_doc(blocks, 2, arr))
            phi = docs.write(stem + "p", ref.state_doc(blocks, ref.random_density_blocks(rng, blocks)))
            psi = docs.write(stem + "q", ref.state_doc(blocks, ref.random_density_blocks(rng, blocks)))
            ops.append(_distance_op(["--rho", rho, "--phi", phi, "--psi", psi], blocks,
                                    "general", _ordered))
    # general class, forced ascent on classical shapes: the bracket must
    # contain the exact point-mass distance
    for n in range(3, 8):
        d, space = spaces[n]
        i, j = map(int, rng.permutation(n)[:2])
        ops.append(_distance_op(["--classical", space, "--phi", str(i), "--psi", str(j),
                                       "--method", "ascent"], (1,) * n, "ascent", _brackets(float(d[i, j]))))
    return ops


BUILDERS = {
    "verify-ladder": build_verify_ladder,
    "search-small": build_search_small,
    "transport": build_transport,
}
