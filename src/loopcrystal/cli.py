"""Command-line surface: curve reports, form evaluation, component listings,
operator application, graph building, and oracle consistency suites.

Curve selection
---------------
Every command takes the curve either from ``--weights 2,3,7`` or from a JSON
config file via ``--config``::

    {
      "weights": [2, 2, 2, 2],
      "lambda": ["0", "inf", "1", "1/2"],
      "seed": 7,
      "trials": 8
    }

``lambda`` lists the marked-point parameters as exact rational strings with
``"inf"`` for the point at infinity; the first three are pinned to
``0, inf, 1``.  ``seed`` and ``trials`` supply defaults for the sampling
commands.  The seed may also come from the ``LOOPCRYSTAL_SEED`` environment
variable; an explicit ``--seed`` wins over both.

Grammars
--------
K-theory classes are written ``"r*O + d*delta + m*S[i,j]"`` (point indices
1-based), e.g. ``"2*O + 3*delta - S[1,1]"``; the bare string ``"0"`` is the
zero class.  Sheaf labels are ``O`` / ``O(expr)`` with ``expr`` a sum of
``c``-multiples and generators (``O(-1)`` means ``O(-c)``, ``O(c - x1)`` is
accepted), ``S[i,j]`` / ``S[i,j,l]`` for serial torsion at weighted point
``i``, ``T[pt](d)`` for torsion at a named ordinary point, and ``E(v...)``
for a rank >= 2 bundle given by its full coordinate vector.

Output and exit codes
---------------------
Commands print JSON on stdout (DOT with ``--dot``).  Exit status is 0 on
success, 2 when the request falls outside the supported label families or the
input is malformed, 3 when a structural check fails (axiom violation, oracle
disagreement), and 141 when the reader closes stdout early (``| head``).
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Iterator
from pathlib import Path

from . import catalog as cat
from . import components as comp
from . import crystal as cry
from . import ktheory as kt
from . import oracle as orc
from .starlattice import WeightData


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _parse_weights_text(text: str) -> tuple[int, ...]:
    try:
        ws = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"weights must be a comma-separated integer list, got {text!r}")
    if not ws:
        raise ValueError("empty weight list")
    return ws


def _parse_rational(text: str, what: str, inf_ok: bool = False):
    """``text`` as an exact ``Fraction``, or ``math.inf`` for ``"inf"`` when
    ``inf_ok``; other text, a zero denominator included, is refused with
    ``ValueError`` (exit 2)."""
    if inf_ok and text == "inf":
        return math.inf
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        alt = " or 'inf'" if inf_ok else ""
        raise ValueError(f"{what} {text!r} is not rational{alt}") from None


def _check_lambda(values) -> tuple[str, ...]:
    out = tuple(map(str, values))
    for s in out:
        _parse_rational(s, "marked-point parameter", inf_ok=True)
    return out


def load_config(path: str) -> dict:
    data = _load_json_file(path, "config", lambda data: data)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    # type(...) is int: JSON true/false load as bool, a subclass of int
    for key, kind in (("weights", list), ("lambda", list), ("seed", int), ("trials", int)):
        if key in data and type(data[key]) is not kind:
            name = "list" if kind is list else "integer"
            raise ValueError(f"config field {key!r} must be a JSON {name}")
    if any(type(w) is not int for w in data.get("weights", ())):
        raise ValueError("config weights must be JSON integers")
    return data


def resolve_curve(args, config: dict) -> WeightData:
    if args.weights is not None:
        weights = _parse_weights_text(args.weights)
    elif "weights" in config:
        weights = tuple(config["weights"])
    else:
        weights = (1, 1, 1)
    labels = None
    if "lambda" in config:
        labels = _check_lambda(config["lambda"])
    return WeightData(weights, labels)


def resolve_seed(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("LOOPCRYSTAL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"LOOPCRYSTAL_SEED must be an integer, got {env!r}")
    return config.get("seed", 0)


def resolve_trials(args, config: dict) -> int:
    if getattr(args, "trials", None) is not None:
        trials = args.trials
    else:
        trials = config.get("trials", orc.DEFAULT_TRIALS)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return trials


# ---------------------------------------------------------------------------
# grammars
# ---------------------------------------------------------------------------

_TERM_SPLIT = re.compile(r"[+-]?[^+-]+")


def _signed_terms(text: str) -> list[str]:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty expression")
    terms = _TERM_SPLIT.findall(s)
    if "".join(terms) != s:
        raise ValueError(f"cannot tokenize expression {text!r}")
    return terms


def parse_kclass(curve: WeightData, text: str) -> kt.KClass:
    """Parse the ``"r*O + d*delta + m*S[i,j]"`` grammar."""
    acc = kt.zero_class(curve)
    for term in _signed_terms(text):
        sign = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign, term = -1, term[1:]
        coeff = 1
        if "*" in term:
            mult, term = term.split("*", 1)
            try:
                coeff = int(mult)
            except ValueError:
                raise ValueError(f"bad multiplicity {mult!r} in class expression")
        if term == "O":
            base = kt.structure_class(curve)
        elif term == "delta":
            base = kt.delta_class(curve)
        else:
            m = re.fullmatch(r"S\[(\d+),(\d+)\]", term)
            if m:
                i = int(m.group(1))
                if not (1 <= i <= curve.n):
                    raise ValueError(f"point index {i} out of range in {term!r}")
                base = kt.class_of_simple(curve, i - 1, int(m.group(2)))
            elif re.fullmatch(r"\d+", term):
                if int(term) != 0:
                    raise ValueError(
                        f"bare integer {term!r} in class expression (write k*O, k*delta, ...)"
                    )
                continue
            else:
                raise ValueError(f"cannot parse class term {term!r}")
        acc = kt.add(acc, kt.scale(sign * coeff, base))
    return acc


def parse_lelement(curve: WeightData, text: str):
    """Degree-lattice element: sum of ``kc``, ``k`` (c-units), and ``k xi`` terms."""
    coeffs = [0] * curve.n
    l = 0
    for term in _signed_terms(text):
        m = re.fullmatch(r"([+-]?)(\d*)c", term)
        if m:
            l += int(m.group(1) + (m.group(2) or "1"))
            continue
        m = re.fullmatch(r"([+-]?)(\d*)x(\d+)", term)
        if m:
            idx = int(m.group(3))
            if not (1 <= idx <= curve.n):
                raise ValueError(f"generator index {idx} out of range in {term!r}")
            coeffs[idx - 1] += int(m.group(1) + (m.group(2) or "1"))
            continue
        m = re.fullmatch(r"[+-]?\d+", term)
        if m:
            l += int(term)
            continue
        raise ValueError(f"cannot parse degree term {term!r}")
    return curve.normalize(coeffs, l=l)


def parse_sheaf_label(curve: WeightData, text: str) -> cat.IndecLabel:
    s = text.strip()
    if s == "O":
        label = cat.LineBundle(curve.zero())
    elif s.startswith("O(") and s.endswith(")"):
        label = cat.LineBundle(parse_lelement(curve, s[2:-1]))
    else:
        m = re.fullmatch(r"S\[(\d+),(-?\d+)(?:,(\d+))?\](?:\((\d+)\))?", s)
        if m:
            if m.group(3) and m.group(4):
                raise ValueError(f"give the length once in {s!r}")
            i = int(m.group(1))
            if not (1 <= i <= curve.n):
                raise ValueError(f"point index {i} out of range in {s!r}")
            length = int(m.group(3) or m.group(4) or 1)
            label = cat.exc_torsion(curve, i - 1, int(m.group(2)), length)
        else:
            m = re.fullmatch(r"T\[([^\],]+)(?:,(\d+))?\](?:\((\d+)\))?", s)
            if m:
                if m.group(2) and m.group(3):
                    raise ValueError(f"give the length once in {s!r}")
                label = cat.OrdTorsion(m.group(1), int(m.group(2) or m.group(3) or 1))
            else:
                m = re.fullmatch(r"E\((.*)\)", s)
                if m:
                    try:
                        vec = [int(v) for v in m.group(1).split(",")]
                    except ValueError:
                        raise ValueError(f"coordinate vector must be integers in {s!r}")
                    label = cat.RealBundle(kt.from_vector(curve, vec))
                else:
                    raise ValueError(f"cannot parse sheaf label {text!r}")
    cat.validate(curve, label)
    return label


def _load_json_file(path: str, what: str, parse):
    """``parse`` applied to the JSON held in ``path``.

    A file that cannot be read, is not JSON or does not have the shape
    ``parse`` reads raises ``ValueError`` (exit 2).
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as err:
        raise ValueError(f"cannot read {what} file {path!r}: {err}")
    except json.JSONDecodeError as err:
        raise ValueError(f"{what} file {path!r} is not valid JSON: {err}")
    try:
        return parse(data)
    except (AttributeError, IndexError, KeyError, TypeError) as err:
        # a field of the wrong type or a missing one below the top level
        raise ValueError(f"{what} file {path!r} is malformed: {err!r}") from None


def load_component(curve: WeightData, spec: str) -> comp.ComponentLabel:
    if spec == "empty":
        return comp.EMPTY
    return _load_json_file(
        spec, "component", lambda data: comp.label_from_json(data, curve)
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

#: Chunks joined into one write by ``_write_batched``.  The indented encoder
#: yields one small string per token (31,870 for a 197 KB crystal graph), so
#: joining them all at once costs about 8 bytes of heap per byte of output;
#: a fixed batch bounds that transient, and keeps the write count small for
#: an ``io.StringIO`` stdout, which holds every write as its own object.  For
#: criterion 05's 638 KB graph, 1024 chunks make 106 writes and a heap peak of
#: 0.19 MB while emitting; 4096 made 27 writes and 0.37 MB.
_EMIT_BATCH = 1024

_INDENTED = json.JSONEncoder(indent=2)


def _nested_chunks(value, depth: int):
    """Chunks of ``json.dumps(value, indent=2)`` placed ``depth`` levels deep."""
    pad = "\n" + "  " * depth
    for chunk in _INDENTED.iterencode(value):
        yield chunk.replace("\n", pad)


def _json_chunks(payload):
    """Chunks of ``json.dumps(payload, indent=2)``, where a top-level field
    whose value is an iterator reads as the list of its items.

    Such a field is encoded one item at a time, as the iterator yields it, so
    its list never exists.  The keys of a dict with such a field are strings.
    """
    fields = payload.items() if isinstance(payload, dict) else ()
    if not any(isinstance(value, Iterator) for _, value in fields):
        yield from _INDENTED.iterencode(payload)
        return
    sep = "{"
    for key, value in fields:
        yield f"{sep}\n  {_INDENTED.encode(key)}: "
        sep = ","
        if not isinstance(value, Iterator):
            yield from _nested_chunks(value, 1)
            continue
        head = "["
        for item in value:
            yield head + "\n    "
            yield from _nested_chunks(item, 2)
            head = ","
        yield "[]" if head == "[" else "\n  ]"
    yield "\n}"


def _emit(payload) -> None:
    """Print ``payload`` as indented JSON and a newline, written in batches.

    The bytes are those of ``print(json.dumps(listed, indent=2))``, where
    ``listed`` is ``payload`` with every top-level iterator read into a list
    (see :func:`_json_chunks`).
    """
    _write_batched(itertools.chain(_json_chunks(payload), ["\n"]))


def _write_batched(chunks: Iterator[str]) -> None:
    """Write the strings of ``chunks`` to stdout, ``_EMIT_BATCH`` per write."""
    for head in chunks:
        sys.stdout.write(head + "".join(itertools.islice(chunks, _EMIT_BATCH - 1)))


def _detach_stdout() -> None:
    """Point the descriptor behind ``sys.stdout`` at ``os.devnull``.

    After a broken pipe the interpreter still flushes ``sys.stdout`` at exit;
    on ``os.devnull`` that flush succeeds instead of printing "Exception
    ignored ... BrokenPipeError".  A stream with no descriptor, such as an
    ``io.StringIO``, is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except io.UnsupportedOperation:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _slope_str(value) -> str:
    """``kt.slope``'s value as text: ``"inf"`` or the ``Fraction``'s string."""
    return "inf" if value == math.inf else str(value)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_curve_info(args, config: dict) -> int:
    curve = resolve_curve(args, config)
    g = curve.genus()
    regime = "finite" if g < 1 else ("tubular" if g == 1 else "wild")
    omega = curve.omega()
    _emit(
        {
            "weights": list(curve.weights),
            "points": list(curve.labels),
            "p": curve.p,
            "genus": str(g),
            "regime": regime,
            "k_rank": kt.lattice_rank(curve),
            "omega": omega.to_json(),
            "omega_display": curve.format_element(omega),
        }
    )
    return 0


def cmd_class(args, config: dict) -> int:
    curve = resolve_curve(args, config)
    a = parse_kclass(curve, args.lhs)
    if args.verb == "euler":
        b = parse_kclass(curve, args.rhs)
        _emit(
            {
                "lhs": a.to_json(),
                "rhs": b.to_json(),
                "euler": kt.euler_form(curve, a, b),
            }
        )
    else:
        _emit(
            {
                "class": a.to_json(),
                "rank": a.r,
                "degree": kt.degree_d(curve, a),
                "slope": _slope_str(kt.slope(curve, a)),
            }
        )
    return 0


def cmd_sheaf(args, config: dict) -> int:
    curve = resolve_curve(args, config)
    a = parse_sheaf_label(curve, args.lhs)
    if args.verb == "hom":
        b = parse_sheaf_label(curve, args.rhs)
        _emit(
            {
                "lhs": cat.format_label(curve, a),
                "rhs": cat.format_label(curve, b),
                "hom": cat.hom_dim(curve, a, b),
                "ext": cat.ext_dim(curve, a, b),
            }
        )
    else:
        _emit(
            {
                "label": cat.format_label(curve, a),
                "class": cat.class_of(curve, a).to_json(),
                "rigid": cat.is_rigid(curve, a),
            }
        )
    return 0


#: the regime whose enumerator alone reads each option of ``components list``
_OPTION_REGIME = {
    "min_degree": "finite", "real_bundle_box": "finite",
    "slope_window": "tubular", "max_parts": "tubular",
}


def cmd_components(args, config: dict) -> int:
    curve = resolve_curve(args, config)
    a = parse_kclass(curve, args.klass)
    g = curve.genus()
    regime = "finite" if g < 1 else ("tubular" if g == 1 else "wild")
    given = {k: getattr(args, k) for k in _OPTION_REGIME if getattr(args, k) is not None}
    for name in given:
        if _OPTION_REGIME[name] != regime:
            raise ValueError(
                f"--{name.replace('_', '-')} applies to {_OPTION_REGIME[name]} weights only"
            )
    if regime == "finite":
        labels = comp.enumerate_components_finite(curve, a, **given)
    elif regime == "tubular":
        if args.slope_window is not None:
            lo, hi = args.slope_window
            given["slope_window"] = (
                _parse_rational(lo, "slope-window lower end"),
                _parse_rational(hi, "slope-window upper end", inf_ok=True),
            )
        labels = comp.enumerate_components_tubular(curve, a, **given)
    elif a.r == 0:
        labels = comp.enumerate_torsion_components(curve, a)
    else:
        raise ValueError(
            "unsupported family: no component enumeration for rank > 0 beyond genus 1"
        )
    _emit(
        {
            "class": a.to_json(),
            "count": len(labels),
            "components": (
                {
                    "display": comp.format_label(curve, z),
                    "expected_dim": comp.expected_dim(curve, z),
                    "label": comp.label_to_json(curve, z),
                }
                for z in labels
            ),
        }
    )
    return 0


def cmd_crystal_apply(args, config: dict) -> int:
    curve = resolve_curve(args, config)
    color = parse_sheaf_label(curve, args.color)
    z = load_component(curve, args.component)
    op = {"epsilon": "eps", "f_max": "fmax"}.get(args.op, args.op)
    report = {
        "op": op,
        "color": cat.format_label(curve, color),
        "input": comp.label_to_json(curve, z),
    }
    if op == "eps":
        report["value"] = cry.epsilon(curve, z, color)
    elif op == "phi":
        report["value"] = cry.phi(curve, z, color)
    else:
        image = {
            "fmax": cry.f_max,
            "f": cry.f,
            "e": cry.e,
        }[op](curve, z, color)
        if image is None:
            report["output"] = None
        else:
            report["output"] = comp.label_to_json(curve, image)
            report["display"] = comp.format_label(curve, image)
    _emit(report)
    return 0


def _budget_from_args(args) -> cry.Budget:
    return cry.Budget(
        max_rank=args.max_rank,
        max_deg=args.max_deg,
        max_delta=args.max_delta,
        max_nodes=args.max_nodes,
    )


def cmd_crystal_graph(args, config: dict) -> int:
    curve = resolve_curve(args, config)
    colors = [parse_sheaf_label(curve, text) for text in args.colors]
    seeds = [load_component(curve, spec) for spec in args.seeds]
    graph = cry.build_graph(curve, seeds, colors, _budget_from_args(args))
    if args.verify:
        violations = cry.verify_axioms(graph)
        if violations:
            _emit({"violations": violations, "count": len(violations)})
            return 3
    if args.dot:
        _write_batched(line + "\n" for line in cry.dot_lines(graph))
    else:
        _emit(cry.graph_json_fields(graph))
    return 0


def cmd_crystal_verify(args, config: dict) -> int:
    graph = _load_json_file(args.graph, "graph", cry.graph_from_json)
    violations = cry.verify_axioms(graph)
    _emit(
        {
            "nodes": len(graph.nodes),
            "edges": len(graph.edges),
            "violations": violations,
            "count": len(violations),
        }
    )
    return 3 if violations else 0


# ---------------------------------------------------------------------------
# oracle suites
# ---------------------------------------------------------------------------

def _case(name: str, expected, observed) -> dict:
    return {
        "test": name,
        "expected": expected,
        "observed": observed,
        "agree": expected == observed,
    }


def _small_multisegments(curve: WeightData, max_total: int):
    p = curve.weights[0]
    out = []
    for dims in itertools.product(range(max_total + 1), repeat=p):
        if 0 < sum(dims) <= max_total:
            out.extend(comp.aperiodic_multisegments(curve, 0, dims))
    return sorted(out, key=lambda m: m.pairs)


def _cyclic_suite(seed: int, trials: int) -> list[dict]:
    cases = []
    for weights in ((2, 1, 1), (3, 1, 1)):
        curve = WeightData(weights)
        p = weights[0]
        battery = _small_multisegments(curve, 3)
        for m in battery:
            tag = f"p{p}:{list(m.pairs)}"
            recovered = orc.recover_type(orc.build_rep(curve, m))
            cases.append(_case(f"recover[{tag}]", list(m.pairs), list(recovered.pairs)))
            z = comp.component_label(curve, (), (), [m])
            for v in range(p):
                color = cat.exc_torsion(curve, 0, v, 1)
                eps = cry.epsilon(curve, z, color)
                sampled = orc.eps_sample(curve, m, v, 1, trials=trials, seed=seed)
                cases.append(_case(f"eps[{tag};v{v}]", eps, sampled))
                if eps == 0:
                    continue
                image = cry.f_max(curve, z, color)
                want = [] if not image.exceptional else list(image.exceptional[0].pairs)
                got = orc.quotient_type_sample(
                    curve, m, v, 1, eps, trials=trials, seed=seed
                )
                cases.append(_case(f"quot[{tag};v{v}]", want, list(got.pairs)))
    return cases


def _p1_suite(seed: int, trials: int) -> list[dict]:
    curve = WeightData((1, 1, 1))
    shapes = set()
    for size in (1, 2):
        for degs in itertools.combinations_with_replacement(range(-1, 3), size):
            shapes.add(tuple(sorted(degs, reverse=True)))
    shapes.add((3, 1, 1))  # a kernel outside the special shapes: (3, 1)
    cases = []
    for degs in sorted(shapes, reverse=True):
        z = comp.component_label(
            curve, [cat.LineBundle(curve.normalize([0, 0, 0], l=d)) for d in degs], (), ()
        )
        for a in (-1, 0, 1):
            color = cat.LineBundle(curve.normalize([0, 0, 0], l=a))
            eps = cry.epsilon(curve, z, color)
            sampled = orc.p1_eps_sample(degs, a, trials=trials, seed=seed)
            cases.append(_case(f"eps[{list(degs)};O({a})]", eps, sampled))
    return cases


def cmd_oracle_check(args, config: dict) -> int:
    seed = resolve_seed(args, config)
    trials = resolve_trials(args, config)
    suite = {"cyclic": _cyclic_suite, "p1": _p1_suite}[args.suite]
    cases = suite(seed, trials)
    all_agree = all(entry["agree"] for entry in cases)
    _emit(
        {
            "suite": args.suite,
            "seed": seed,
            "trials": trials,
            "cases": cases,
            "all_agree": all_agree,
        }
    )
    return 0 if all_agree else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcrystal",
        description="Exact combinatorics of nilpotent Higgs components and crystal operators.",
    )
    # the curve options go before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    for owner, default in ((parser, None), (common, argparse.SUPPRESS)):
        owner.add_argument(
            "--config", default=default,
            help="JSON config file with weights/lambda/seed/trials",
        )
        owner.add_argument(
            "--weights", default=default,
            help="comma-separated weight list, e.g. 2,3,7",
        )
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="verb", required=True)

    def command(verbs, name, func, help):
        leaf = verbs.add_parser(name, parents=[common], help=help)
        leaf.set_defaults(func=func)
        return leaf

    curve = group("curve", "curve-level reports")
    command(curve, "info", cmd_curve_info, "genus, regime, dualizing element, lattice rank")

    klass = group("class", "K-theory lattice computations")
    euler = command(klass, "euler", cmd_class, "Euler form of two classes")
    euler.add_argument("lhs")
    euler.add_argument("rhs")
    slope = command(klass, "slope", cmd_class, "rank, degree, and slope of a class")
    slope.add_argument("lhs")

    sheaf = group("sheaf", "indecomposable-sheaf computations")
    hom = command(sheaf, "hom", cmd_sheaf, "Hom and Ext dimensions between labels")
    hom.add_argument("lhs")
    hom.add_argument("rhs")
    rigid = command(sheaf, "rigid", cmd_sheaf, "rigidity of a label")
    rigid.add_argument("lhs")

    comps = group("components", "irreducible-component listings")
    clist = command(comps, "list", cmd_components, "labels of a positive class")
    clist.add_argument("--class", dest="klass", required=True, help="class expression")
    clist.add_argument("--min-degree", type=int, help="line-bundle degree floor (genus < 1)")
    clist.add_argument(
        "--real-bundle-box", type=int, default=None,
        help="coordinate box for rank >= 2 bundle summands (genus < 1)",
    )
    clist.add_argument(
        "--slope-window", nargs=2, metavar=("LO", "HI"), default=None,
        help="slope bounds for genus-1 splittings; HI may be 'inf'",
    )
    # match negative fractions too, e.g. -1/2
    clist._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    clist.add_argument("--max-parts", type=int, help="splitting length cap (genus 1)")

    crystal = group("crystal", "operators and graphs")
    apply_p = command(crystal, "apply", cmd_crystal_apply, "apply one operator to a component label")
    apply_p.add_argument(
        "--op", required=True,
        choices=["eps", "epsilon", "phi", "f", "fmax", "f_max", "e"],
    )
    apply_p.add_argument("--color", required=True, help="rigid sheaf label, e.g. 'O(-1)' or 'S[1,0]'")
    apply_p.add_argument(
        "--component", required=True,
        help="component JSON file, or 'empty' for the empty label",
    )
    graph_p = command(crystal, "graph", cmd_crystal_graph, "close seeds under raising and lowering")
    graph_p.add_argument("--seeds", nargs="+", required=True, help="component files or 'empty'")
    graph_p.add_argument("--colors", nargs="+", required=True, help="rigid sheaf labels")
    graph_p.add_argument("--max-rank", type=int, default=None)
    graph_p.add_argument("--max-deg", type=int, default=None, help="absolute degree cap in c-units")
    graph_p.add_argument("--max-delta", type=int, default=None, help="rank-0 window under k*delta")
    graph_p.add_argument("--max-nodes", type=int, default=None)
    graph_p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    graph_p.add_argument("--verify", action="store_true", help="check axioms before emitting")
    verify_p = command(crystal, "verify", cmd_crystal_verify, "check axioms on a saved graph")
    verify_p.add_argument("--graph", required=True, help="graph JSON file")

    oracle = group("oracle", "randomized consistency suites")
    check = command(oracle, "check", cmd_oracle_check, "replay closed rules against the sampler")
    check.add_argument("--suite", required=True, choices=["cyclic", "p1"])
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--trials", type=int, default=None)

    return parser


#: Exit status when the reader closes stdout before the output is written,
#: the status a shell reports for a process ended by SIGPIPE (128 + 13).
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads a lone "--" given as a value ("--weights=--") as an empty
    # list instead of refusing it; no argument here has an empty list as value
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument {name}: expected a value, got '--'")
    try:
        config = load_config(args.config) if args.config else {}
        # each command starts with empty operator memos, as a new process does
        cry.clear_memos()
        code = args.func(args, config)
        sys.stdout.flush()
        return code
    except ValueError as err:
        _fail(str(err))
        return 2
    except AssertionError as err:
        _fail(f"internal inconsistency: {err}")
        return 3
    except BrokenPipeError:
        _detach_stdout()
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
