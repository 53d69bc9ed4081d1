"""Guard against dead code: every function and method defined in the package
is referenced somewhere else in the package, or is one of the names kept on
purpose below.  A method or property counts as referenced only through an
attribute (``x.name``); a function outside a class, through a loaded name or
an attribute."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wittenzeta"

#: Kept without a caller in the package: reference paths that tests hold the
#: fast paths to, acceptance criteria, oracles and benchmark seams.
KEPT = (
    # exact and gamma-path dimensions, the references of the compiled table
    "dims.dim_class_one", "dims.dim_class_one_log", "dims.dim_type_II",
    "dims.LinearFactors.casimir",
    # the Harish-Chandra c-function path
    "dims.c_function", "dims.c_alpha", "dims.c_alpha_reduced",
    "dims.dimension_via_c_ratio",
    # acceptance criteria and exact identities
    "zeta.hurwitz_relation_check", "genseries.zero_identity_exact",
    "dims.FactoredDimPolynomial.evaluate", "dims.FactoredDimPolynomial.expand",
    # the 2-sphere oracle
    "sphere_oracle.zsf_s2", "sphere_oracle.orthogonality_residual",
    "sphere_oracle.delta_kernel_error", "sphere_oracle.kernel_at_identity",
    # benchmark seam: bench/test_bench.py calls it and zeta._growing_box,
    # which zeta._zeta calls too
    "weights._graded_box",
    # argparse calls this override on a usage error
    "cli._Parser.error",
)


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


def _scan():
    defined, names, attributes = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += _definitions(tree, path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return defined, names, attributes


def test_every_function_is_referenced_or_kept():
    defined, names, attributes = _scan()
    dead = [qualified for qualified, name, method in defined
            if name not in attributes and (method or name not in names)
            and qualified not in KEPT
            and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []


def test_every_kept_name_is_defined():
    defined = _scan()[0]
    assert set(KEPT) <= {qualified for qualified, _, _ in defined}
