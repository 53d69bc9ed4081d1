"""Guard against dead code: every function, method, module-level class and
module-level constant defined in the package is referenced somewhere else in
the package, or is one of the names kept on purpose below.  A method or
property counts as referenced only through an attribute (``x.name``); a
function outside a class, a class or a constant, through a loaded name or an
attribute, not an import or an ``__all__`` entry.  A record field, a name
annotated in a class body, counts as used only when some attribute access
reads it, as storing a value nobody reads is dead too, and a parameter's
default only when some call sets that parameter, as a knob nobody turns is
dead too; a call of a class sets the parameters of its ``__new__`` and
``__init__``, and a call of a record, or of a class built on it, sets its
fields by position or keyword.  The last test pins that the package's
records are immutable."""
import ast
import re
from pathlib import Path

import pytest

from wittenzeta import dims, partition, rootdata, zeta

SRC = Path(__file__).resolve().parents[1] / "src" / "wittenzeta"

#: Kept without a caller in the package: reference paths that tests hold the
#: fast paths to, acceptance criteria, oracles and benchmark seams.
KEPT = (
    # exact and gamma-path dimensions, the references of the compiled table
    "dims.dim_class_one", "dims.dim_class_one_log", "dims.dim_type_II",
    "dims.LinearFactors.casimir",
    # acceptance criteria and exact identities
    "genseries.zero_identity_exact",
    "dims.FactoredDimPolynomial.evaluate", "dims.FactoredDimPolynomial.expand",
    # the 2-sphere oracle
    "sphere_oracle.zsf_s2", "sphere_oracle.orthogonality_residual",
    "sphere_oracle.delta_kernel_error", "sphere_oracle.kernel_at_identity",
    # benchmark seam: bench/test_bench.py calls it and zeta._growing_box,
    # which zeta._zeta calls too
    "weights._graded_box",
    # argparse calls this override on a usage error
    "cli._Parser.error",
    # the digamma test's reference constant, and the Riemann zeta the
    # Hurwitz tests hold it to
    "specfun.EULER_GAMMA", "specfun.riemann_zeta",
    # a record's _replace builds through it, so the record's checks run
    "result.Frozen._make",
)

#: Record fields that no attribute access in the package reads.
KEPT_FIELDS = ()


def _definitions(node, prefix, in_class=False):
    """(qualified name, name, whether a method) of every function and method
    under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{child.name}"
            is_class = isinstance(child, ast.ClassDef)
            if not is_class:
                yield qualified, child.name, in_class
            yield from _definitions(child, qualified, is_class)
        else:
            yield from _definitions(child, prefix, in_class)


def _module_names(tree, prefix):
    """(qualified name, name) of every class and constant at module level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield f"{prefix}.{node.name}", node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{prefix}.{target.id}", target.id


def _scan():
    defined, names, attributes = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += _definitions(tree, path.stem)
        defined += [(qualified, name, False) for qualified, name in _module_names(tree, path.stem)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return defined, names, attributes


def _scan_fields():
    """(qualified name, name) of every record field, a name annotated in a
    class body, whatever form the record takes (a NamedTuple, or the
    NamedTuple base of a class that keeps cached properties), and every
    attribute name that some access reads."""
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                fields += [(f"{path.stem}.{node.name}.{stmt.target.id}", stmt.target.id)
                           for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return fields, reads


def test_every_function_is_referenced_or_kept():
    defined, names, attributes = _scan()
    dead = [qualified for qualified, name, method in defined
            if name not in attributes and (method or name not in names)
            and qualified not in KEPT
            and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []


def test_the_table_layer_names_no_sum_built_on_it():
    # weights and dual build their sums on dims' compiled tables and keep
    # what they need of a table on it (``LinearFactors.part``), so dims
    # neither imports nor names either module
    named = set()
    for node in ast.walk(ast.parse((SRC / "dims.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            named.update(node.module.split("."))
    assert named & {"weights", "dual"} == set()


#: An expression that builds or fetches a ``genseries.Series`` or one scaled
#: to a power.
_SERIES = re.compile(r"\b_series\b|\bSeries\b|\.power\(")


def test_only_genseries_takes_a_series_tail_apart():
    # one rule certifies a whole tail of a shifted product
    # (``genseries.whole_tail``) and one method scales a Series to a power
    # (``Series.power``): no other module calls the tail rule or the kernel
    # bound behind it, or reads the parts of a Series both are built from
    taken = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "genseries":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        series = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and _SERIES.search(ast.unparse(node.value))
                  for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "name", None)
            if name in ("moment_tail", "_upper") or isinstance(node, ast.Attribute) and (
                    name in ("moments", "log_c") or name == "factors" and (
                        getattr(node.value, "id", None) in series
                        or _SERIES.search(ast.unparse(node.value)))):
                taken.append(f"{path.stem}:{node.lineno}:{name}")
    assert taken == []


def test_every_kept_name_is_defined():
    defined = _scan()[0]
    assert set(KEPT) <= {qualified for qualified, _, _ in defined}


def test_every_dataclass_field_is_read_or_kept():
    fields, reads = _scan_fields()
    unread = [qualified for qualified, name in fields
              if name not in reads and qualified not in KEPT_FIELDS]
    assert unread == []


def test_every_kept_field_is_defined():
    assert set(KEPT_FIELDS) <= {qualified for qualified, _ in _scan_fields()[0]}


#: Parameters with a default that no call in the package sets, and who does.
KEPT_DEFAULTS = (
    # the tests call the entry point with an argument list
    "cli.main.argv",
    # the benchmark's references ask for a 1e-12 tolerance
    "genseries.zeta_values_from_rank_one.tolerance",
    # a field default: every result's JSON carries it, and whether it can
    # turn False waits on bounds that cover the rounding of the value
    "result.EvalResult.rigorous",
)


def _defaults(node, prefix, in_class=False):
    """(qualified name, names of the functions whose call sets it, parameter
    name, positional index or None) of every parameter with a default under
    ``node``; a method's index leaves out ``self``, and a constructor's
    function name is its class's."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args, called = child.args, child.name
            if in_class and called in ("__new__", "__init__"):
                called = prefix.rsplit(".", 1)[-1]
            positional = args.posonlyargs + args.args
            for i in range(len(positional) - len(args.defaults), len(positional)):
                arg = positional[i].arg
                yield f"{prefix}.{child.name}.{arg}", {called}, arg, i - in_class
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{prefix}.{child.name}.{arg.arg}", {called}, arg.arg, None
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _defaults(child, f"{prefix}.{child.name}", isinstance(child, ast.ClassDef))
        else:
            yield from _defaults(child, prefix, in_class)


def _field_defaults(trees):
    """(qualified name, names of the classes whose call sets it, field name,
    position) of every record field with a default, a name annotated and
    assigned in a class body: a call of its class, or of a class built on
    it, sets it."""
    classes = {node.name: (stem, node) for stem, tree in trees
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    for name, (stem, node) in classes.items():
        built = {name}
        while more := {other for other, (_, cls) in classes.items() if other not in built
                       and any(getattr(base, "id", getattr(base, "attr", None)) in built
                               for base in cls.bases)}:
            built |= more
        fields = [stmt for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        for i, stmt in enumerate(fields):
            if stmt.value is not None:
                yield f"{stem}.{name}.{stmt.target.id}", built, stmt.target.id, i


def _unset_defaults():
    """Every parameter or field with a default that no call in the package
    sets, by position, keyword, *args or **kwargs, to a function or class of
    its name."""
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))]
    defaults, calls = [*_field_defaults(trees)], []
    for stem, tree in trees:
        defaults += _defaults(tree, stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                spread = (any(isinstance(a, ast.Starred) for a in node.args)
                          or any(k.arg is None for k in node.keywords))
                calls.append((name, len(node.args), {k.arg for k in node.keywords}, spread))
    return [qualified for qualified, names, param, index in defaults
            if not any(called in names and (spread or param in keywords
                                           or index is not None and count > index)
                       for called, count, keywords, spread in calls)]


def test_every_default_is_set_or_kept():
    assert sorted(set(_unset_defaults()) - set(KEPT_DEFAULTS)) == []


def test_every_kept_default_is_unset():
    assert set(KEPT_DEFAULTS) <= set(_unset_defaults())


#: One record of each immutable class, built fresh through its constructor,
#: and names to assign: a field, a cached property where the class has one,
#: and a name the class does not define.
RECORDS = [
    pytest.param(lambda: zeta.zeta_type_I("S:2", 2.0), ("value", "extra"), id="EvalResult"),
    pytest.param(lambda: partition.SurfaceParams(1, 0.5, (1.0,)),
                 ("area", "holonomies", "extra"), id="SurfaceParams"),
    pytest.param(lambda: rootdata.RestrictedRootSystem(*rootdata.build_root_system("A", 2)),
                 ("rank", "norms", "extra"), id="RestrictedRootSystem"),
    pytest.param(lambda: rootdata._build_space("AI:3"),
                 ("mult", "rho_pairings", "extra"), id="SymmetricSpaceDescriptor"),
    pytest.param(lambda: dims.LinearFactors(*dims.compile_group("SU:3")),
                 ("shifts", "_heads", "extra"), id="LinearFactors"),
]


@pytest.mark.parametrize("make, names", RECORDS)
def test_records_are_immutable(make, names):
    # what frozen dataclasses gave callers: no name can be set or deleted,
    # cached properties included, before or after their first use
    record = make()
    for name in names:
        for _ in range(2):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            getattr(record, name, None)
    assert record == make()
