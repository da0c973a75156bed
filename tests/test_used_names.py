"""Every package name the benchmark harness, the demos and the acceptance
suite use still exists, and the package exports no other.

The scripts under ``bench/`` and ``demos/`` and ``tests/test_acceptance.py``
are parsed, never run: each ``from uisearch... import X``, each attribute
chain on an imported ``uisearch`` module (``us.simulate_many``,
``uisearch.cli.main``) and each ``module.function`` key of the harness's
``TARGETS`` table must resolve against the installed package, and the
arguments the harness sizes its spans by must still sit where it reads
them. ``uisearch.__all__`` holds exactly the top-level names these
scripts and README use, plus the error classes callers catch, and every
defaulted parameter of an exported function is set by some call in
``src/``, these scripts or README's Python examples. The Monte Carlo
kernel also keeps a budget of code lines, counted with ``tokenize``.
"""

import ast
import importlib
import inspect
import io
import pkgutil
import re
import sys
import tokenize
import types
from pathlib import Path

import pytest

import uisearch

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("demos/*.py"),
                  ROOT / "tests" / "test_acceptance.py"])
CALL_SITES = sorted([*ROOT.glob("src/uisearch/*.py"), *SCRIPTS])
SUBMODULES = [m.name for m in pkgutil.iter_modules(uisearch.__path__)]
ERRORS = {"ConfigError", "DivergenceError", "InfeasibleError",
          "NonConvergenceError"}


def _attribute_chain(node):
    """``a.b.c`` as ["a", "b", "c"], or None when the root is not a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _in_package(module):
    return module.split(".")[0] == "uisearch"


def used_names(tree):
    """Dotted package names a script refers to."""
    names = set()
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _in_package(node.module or ""):
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if _in_package(a.name):
                    names.add(a.name)
                    aliases[a.asname or "uisearch"] = a.name if a.asname else "uisearch"
    for node in ast.walk(tree):
        chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in aliases:
            names.add(".".join([aliases[chain[0]], *chain[1:]]))
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)):
            names.update(f"uisearch.{k.value}" for k in node.value.keys)
    return names


def resolves(dotted):
    """Whether ``dotted`` names an attribute reachable from a uisearch module.

    The chain is followed through modules only: past the first object
    that is not a module, the rest of a chain may be instance state,
    which a static check cannot see.
    """
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not isinstance(obj, types.ModuleType):
            return True
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i + 1]))
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, part)
    return True


def readme_examples():
    """README's Python examples, parsed."""
    text = (ROOT / "README.md").read_text()
    return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", text, re.S)]


def readme_names():
    """Package names README imports in its Python examples or cites in
    backticks, such as `SweepRow`."""
    text = (ROOT / "README.md").read_text()
    names = set()
    for tree in readme_examples():
        names |= used_names(tree)
    modules = [importlib.import_module(f"uisearch.{name}") for name in SUBMODULES]
    for word in set(re.findall(r"`([A-Za-z]\w*)`", text)):
        defined = [getattr(m, word) for m in modules if hasattr(m, word)]
        if any(getattr(obj, "__module__", "").startswith("uisearch")
               for obj in defined):
            names.add(f"uisearch.{word}")
    return names


def test_scripts_found():
    assert any(p.parent.name == "bench" for p in SCRIPTS)
    assert any(p.parent.name == "demos" for p in SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_package_names_used_by_script_resolve(script):
    names = used_names(ast.parse(script.read_text(), filename=str(script)))
    missing = sorted(n for n in names if not resolves(n))
    assert not missing, f"{script.name} uses missing names: {missing}"


def test_exports_are_the_names_in_use():
    used = set(readme_names())
    for script in SCRIPTS:
        used |= used_names(ast.parse(script.read_text(), filename=str(script)))
    top_level = {name.split(".")[1] for name in used if name.count(".") == 1}
    assert "SweepRow" in top_level  # cited by README's prose only
    assert set(uisearch.__all__) == (top_level - set(SUBMODULES)) | ERRORS
    assert len(uisearch.__all__) == len(set(uisearch.__all__))


def set_parameters(tree, functions):
    """The (function, parameter) pairs that calls in ``tree`` set.

    A call is matched to ``functions`` by the last name of its callee,
    ``f(...)`` or ``module.f(...)``. It sets the parameters it passes by
    position or keyword, and all of them when it unpacks ``*args`` or
    ``**kwargs``.
    """
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name not in functions:
            continue
        params = list(inspect.signature(functions[name]).parameters)
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            passed = params
        else:
            passed = params[:len(node.args)] + [k.arg for k in node.keywords]
        found.update((name, param) for param in passed)
    return found


def test_every_defaulted_parameter_is_set_by_a_caller():
    functions = {name: getattr(uisearch, name) for name in uisearch.__all__
                 if inspect.isfunction(getattr(uisearch, name))}
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in CALL_SITES]
    set_somewhere = set()
    for tree in trees + readme_examples():
        set_somewhere |= set_parameters(tree, functions)
    defaulted = {(name, param.name) for name, fn in functions.items()
                 for param in inspect.signature(fn).parameters.values()
                 if param.default is not param.empty}
    assert sorted(defaulted - set_somewhere) == []


def test_parameter_guard_counts_position_keyword_and_unpacking():
    def f(a, b=0, c=0, d=0):
        pass

    def g(a=0, b=0):
        pass

    tree = ast.parse("f(1, 2)\nm.f(1, d=3)\ng(*xs)\nh(1, 2, c=3)\n")
    assert set_parameters(tree, {"f": f, "g": g}) == {
        ("f", "a"), ("f", "b"), ("f", "d"), ("g", "a"), ("g", "b")}


def test_guard_catches_a_missing_name():
    tree = ast.parse("import uisearch as us\n"
                     "from uisearch.evaluate import no_such_helper, welfare_loss\n"
                     "us.simulate_many(); us.no_such_name()\n"
                     "TARGETS = {'schedule.no_such_function': None}\n")
    names = used_names(tree)
    assert "uisearch.simulate_many" in names
    assert {n for n in names if not resolves(n)} == {
        "uisearch.evaluate.no_such_helper", "uisearch.no_such_name",
        "uisearch.schedule.no_such_function"}


def test_span_size_arguments_keep_their_positions():
    # bench/layers.py sizes simulate_block spans by args[6] and _variates
    # spans by len(args[1]), the lane keys; these feed periods_per_block
    # and variates_per_spell.
    from uisearch import montecarlo
    assert list(inspect.signature(montecarlo.simulate_block).parameters)[6] == "count"
    assert list(inspect.signature(montecarlo._variates).parameters)[1] == "keys"


def counted(monkeypatch, qualname):
    """Calls of ``uisearch.<qualname>``, wrapped in every package module
    that holds it, as bench/layers.py patches its timing targets."""
    modname, attr = qualname.rsplit(".", 1)
    original = getattr(importlib.import_module(f"uisearch.{modname}"), attr)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if _in_package(name) and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_a_sweep_pass_makes_the_census_divisors(monkeypatch):
    # bench/run.py divides a sweep's census by its schedule.upsilon and
    # evaluate.evaluate_policy spans. A sweep's one upsilon call per belief
    # is the extension base in solve_w0_extension.
    cal = uisearch.default_calibration()
    upsilon = counted(monkeypatch, "schedule.upsilon")
    evaluations = counted(monkeypatch, "evaluate.evaluate_policy")
    rows = uisearch.sweep_beliefs(cal, vary="delta")
    assert len(evaluations) == len(rows) + 1  # and the true belief's baseline
    assert len(upsilon) == len(evaluations)


@pytest.mark.parametrize("vary, most", [("delta", 376), ("len", 244)])
def test_a_sweep_pass_prices_each_threshold_once(monkeypatch, vary, most):
    # One default exact sweep pass prices each Newton iterate, each basic
    # wage and each belief's pre-extension wages once: 376 _price calls
    # on the delta grid and 244 on the length grid. A change that lowers a
    # count tightens its bound.
    cal = uisearch.default_calibration()
    prices = counted(monkeypatch, "schedule._price")
    uisearch.sweep_beliefs(cal, vary=vary)
    assert len(prices) <= most


def test_a_million_spells_draw_a_fixed_number_of_variates(monkeypatch):
    # One 1-worker million-spell call at mc_million's pessimist policy,
    # belief (0.1, 25) under the default calibration, seed 0: 809
    # _variates calls over 11 340 858 lane-draws. A change that lowers a
    # count tightens its bound.
    cal = uisearch.default_calibration()
    policy = uisearch.build_policy(cal.dist, cal.params, uisearch.ExtensionSpec(0.1, 25),
                                   cal.truth.length)
    draws = counted(monkeypatch, "montecarlo._variates")
    uisearch.simulate_many(policy, cal.truth, cal.params, cal.dist, 1_000_000, 0,
                           n_workers=1)
    assert len(draws) <= 809
    assert sum(len(args[1]) for args in draws) <= 11_340_858


def test_a_sweep_pass_calls_the_counted_distribution_members(monkeypatch):
    # bench/run.py reads a sweep's distributions.cdf and
    # distributions.partial_expectation counts from a plain dict copied
    # from its Counter, so a pass must call each member at least once or
    # the census raises KeyError.
    from uisearch import UniformOffers
    calls = []

    def counting(member):
        original = getattr(UniformOffers, member)

        def wrapper(self, *args):
            calls.append(member)
            return original(self, *args)
        return wrapper

    for member in ("cdf", "partial_expectation"):
        monkeypatch.setattr(UniformOffers, member, counting(member))
    uisearch.sweep_beliefs(uisearch.default_calibration(), vary="delta")
    assert set(calls) == {"cdf", "partial_expectation"}


def test_a_traced_simulate_makes_the_census_divisor(monkeypatch, tmp_path, capsys):
    # bench/run.py divides the traced CLI's spell time by its
    # montecarlo.simulate_spell spans.
    from uisearch.cli import main
    spells = counted(monkeypatch, "montecarlo.simulate_spell")
    config = tmp_path / "run.json"
    config.write_text('{"beta": 0.95, "z": 0.4, "c": 0.4, "N": 10, "delta_true": 0.5, '
                      '"len_true": 25, "delta_belief": 0.1, "len_belief": 25}')
    assert main(["simulate", "--config", str(config), "--spells", "50",
                 "--trace", "1"]) == 0
    assert len(spells) == 1


def test_overridden_distribution_methods_keep_their_parameters():
    # bench/layers.py's TracedUniform overrides these three methods of
    # UniformOffers and forwards its arguments to them.
    from uisearch import UniformOffers
    expected = {"cdf": ["x"], "partial_expectation": ["a", "b"], "quantile": ["u"]}
    for name, params in expected.items():
        signature = inspect.signature(getattr(UniformOffers, name))
        assert list(signature.parameters) == ["self", *params], name



def scoped_nodes(node, scope=None):
    """(function, node) of each node under ``node``, where function is the
    innermost enclosing one, None at module level."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else scope)
        yield from scoped_nodes(child, inner)


def global_statements(node):
    """(function, names) of each ``global`` statement under ``node``."""
    return [(scope, tuple(child.names)) for scope, child in scoped_nodes(node)
            if isinstance(child, ast.Global)]


def calls_to(node, names):
    """(function, callee) of each call under ``node`` to one of ``names``,
    ``f(...)`` or ``module.f(...)``."""
    found = []
    for scope, child in scoped_nodes(node):
        if isinstance(child, ast.Call):
            callee = getattr(child.func, "attr", getattr(child.func, "id", None))
            if callee in names:
                found.append((scope, callee))
    return found


def test_the_package_has_no_global_statement():
    # Module state set at run time hides an input from callers. Forked
    # children inherit their work as a closure, so none is needed.
    found = [(path.stem, *statement)
             for path in sorted(ROOT.glob("src/uisearch/*.py"))
             for statement in global_statements(ast.parse(path.read_text()))]
    assert found == []


def test_global_guard_finds_module_level_and_nested_statements():
    tree = ast.parse("global a\ndef f():\n    def g():\n        global b\n"
                     "    global c\n")
    assert list(global_statements(tree)) == [(None, ("a",)), ("g", ("b",)),
                                             ("f", ("c",))]


def test_policies_and_post_chains_have_one_builder():
    # A belief comparison shares one basic schedule and one set of post
    # chains only if every policy comes from build_policies and every
    # chain from the evaluator; the sweeps and the CLI reach them through
    # evaluate_beliefs, build_policies and build_policy.
    found = {(path.stem, *call)
             for path in sorted(ROOT.glob("src/uisearch/*.py"))
             for call in calls_to(ast.parse(path.read_text()),
                                  {"PolicyProfile", "post_chains"})}
    assert found == {("evaluate", "build_policies", "PolicyProfile"),
                     ("evaluate", "evaluate_policy", "post_chains"),
                     ("evaluate", "evaluate_beliefs", "post_chains")}
    parts = {"build_basic_schedule", "build_extension_schedule", "PolicyProfile",
             "post_chains", "evaluate_policy"}
    for name in ("experiments", "cli"):
        tree = ast.parse((ROOT / "src" / "uisearch" / f"{name}.py").read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & parts, name


def test_call_guard_finds_plain_and_attribute_calls():
    tree = ast.parse("f()\ndef g():\n    m.f(h())\n")
    assert calls_to(tree, {"f", "h"}) == [(None, "f"), ("g", "f"), ("g", "h")]


def module_level_imports(node):
    """Top-level names of the modules imported outside any function."""
    found = set()
    for scope, child in scoped_nodes(node):
        if scope is None and isinstance(child, ast.Import):
            found.update(alias.name.split(".")[0] for alias in child.names)
        elif scope is None and isinstance(child, ast.ImportFrom) and not child.level:
            found.add(child.module.split(".")[0])
    return found


def test_only_simulation_and_the_oracle_import_numpy_at_module_level():
    # The exact path (solve, evaluate, sweep --mode exact, calibrate) and
    # the closed forms run on Python floats; a module-level numpy import
    # anywhere on the exact path would load numpy for every command.
    found = {path.stem for path in sorted(ROOT.glob("src/uisearch/*.py"))
             if "numpy" in module_level_imports(ast.parse(path.read_text()))}
    assert found == {"montecarlo"}


def test_import_guard_skips_function_bodies():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import norm\n"
                     "from . import sibling\nclass C:\n    import os\n"
                     "def f():\n    import json\n")
    assert module_level_imports(tree) == {"numpy", "os"}


def test_only_main_writes_the_cli_data():
    # Each subcommand returns its lines and main writes them, to stdout or
    # --out, so that every command opens its output the same way and only
    # once its data is ready. A print without a file also writes stdout.
    tree = ast.parse((ROOT / "src" / "uisearch" / "cli.py").read_text())
    opens = [scope for scope, callee in calls_to(tree, {"open"})]
    stdout = [scope for scope, child in scoped_nodes(tree)
              if _attribute_chain(child) == ["sys", "stdout"]]
    prints = [scope for scope, child in scoped_nodes(tree)
              if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "print"
              and "file" not in {keyword.arg for keyword in child.keywords}]
    assert (opens, stdout, prints) == (["main"], ["main"], [])


def test_range_rules_live_in_config():
    # The flags and grid points go through config's require_* checks, so
    # one rule reads one way whether it comes from a file or a flag. The
    # CLI builds a ConfigError only for what config cannot check: the
    # output path, the grid's syntax and a failed write.
    tree = ast.parse((ROOT / "src" / "uisearch" / "cli.py").read_text())
    assert {scope for scope, _ in calls_to(tree, {"ConfigError"})} == {
        "_check_out", "_parse_grid", "main"}


def test_call_guard_counts_built_errors_not_references():
    # cli.py names ConfigError in its exit-code table and its except
    # clause; only a call builds one.
    tree = ast.parse("CODES = {ConfigError: 2}\ndef f():\n    try:\n        g()\n"
                     "    except ConfigError:\n        pass\n"
                     "def h():\n    def k():\n        raise errors.ConfigError('x', 'y')\n")
    assert calls_to(tree, {"ConfigError"}) == [("k", "ConfigError")]


def attribute_uses(node, names):
    """(function, attribute) of each use of an attribute in ``names`` under
    ``node``, called or not, so that a bound method held in a name counts."""
    return [(scope, child.attr) for scope, child in scoped_nodes(node)
            if isinstance(child, ast.Attribute) and child.attr in names]


def test_thresholds_are_priced_in_one_place():
    # Every module takes a threshold's rejection probability and tail from
    # schedule._price, whose cdf call refuses a threshold outside the
    # support: Newton's steps, the recursions and the evaluator alike, so
    # that each step prices its iterate once and a belief comparison
    # prices each threshold once.
    found = [(path.stem, *use) for path in sorted(ROOT.glob("src/uisearch/*.py"))
             for use in attribute_uses(ast.parse(path.read_text()),
                                       {"cdf", "partial_expectation"})]
    assert sorted(found) == [("schedule", "_price", "cdf"),
                             ("schedule", "_price", "partial_expectation")]


def option_values(node):
    """(function, expression) of each ``<x> * reject + tail`` under
    ``node``: the option value ``upsilon(x)`` formed from a price."""
    return [(scope, ast.unparse(child)) for scope, child in scoped_nodes(node)
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Add)
            and isinstance(child.left, ast.BinOp) and isinstance(child.left.op, ast.Mult)
            and getattr(child.left.right, "id", None) == "reject"
            and getattr(child.right, "id", None) == "tail"]


def test_the_option_value_is_formed_in_one_place():
    # schedule._price forms upsilon(x) beside the price it comes from, and
    # every Newton step, recursion and post-extension chain reads it
    # there, so a new spelling of the option value changes one line.
    found = [(path.stem, *form) for path in sorted(ROOT.glob("src/uisearch/*.py"))
             for form in option_values(ast.parse(path.read_text()))]
    assert found == [("schedule", "_price", "x * reject + tail")]


def test_option_value_guard_finds_each_operand_and_skips_other_sums():
    tree = ast.parse("def f(x, wage, basic, m):\n"
                     "    a = x * reject + tail\n"
                     "    b = min(term + slope * (wage * reject + tail), top)\n"
                     "    return [basic[m] * reject + tail]\n"
                     "def g(value, wage, beta):\n"
                     "    return reject * value + tail / (1 - beta), tail + reject * wage\n")
    assert option_values(tree) == [("f", "x * reject + tail"),
                                   ("f", "wage * reject + tail"),
                                   ("f", "basic[m] * reject + tail")]


SCHEDULE_NAMES = re.compile(r"threshold|wage|schedule|basic|with_extension|^pre$|^post$")


def length_checks(node):
    """(function, argument) of each comparison under ``node`` that takes
    ``len`` of a schedule or of a policy's thresholds: an argument with a
    name or attribute such as ``basic``, ``wages`` or ``pre_thresholds``."""
    found = []
    for scope, child in scoped_nodes(node):
        if not isinstance(child, ast.Compare):
            continue
        for operand in [child.left, *child.comparators]:
            for call in ast.walk(operand):
                if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "len"
                        and any(SCHEDULE_NAMES.search(name)
                                for arg in call.args for sub in ast.walk(arg)
                                for name in [getattr(sub, "id", getattr(sub, "attr", ""))])):
                    found.append((scope, ast.unparse(call.args[0])))
    return found


def test_coverage_is_checked_in_one_place():
    # How many thresholds a policy holds, and how far a post-extension
    # schedule reaches, is one rule, checked by evaluate.check_policy and
    # schedule.check_cover for the evaluator, the simulators, the
    # extension builder and the identity residual alike.
    found = [(path.stem, *check) for path in sorted(ROOT.glob("src/uisearch/*.py"))
             for check in length_checks(ast.parse(path.read_text()))]
    assert sorted(found) == [("evaluate", "check_policy", "policy._pre_thresholds"),
                             ("schedule", "check_cover", "wages")]


def test_length_guard_finds_schedule_lengths_in_any_comparison():
    tree = ast.parse("def f(policy, basic, sizes, n):\n"
                     "    if len(policy.pre_thresholds) != n + 1:\n        pass\n"
                     "    ok = n < len(basic) and len(sizes) > 2\n"
                     "    return [x for x in range(len(basic))], 0 < len(ext_wages) + 1\n"
                     "def g(pre, prefix):\n    return len(pre) == len(prefix)\n")
    assert length_checks(tree) == [("f", "policy.pre_thresholds"), ("f", "basic"),
                                   ("f", "ext_wages"), ("g", "pre")]


LOOPS = (ast.For, ast.AsyncFor, ast.While)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def passes(function):
    """The kinds of the loops and comprehensions under ``function``,
    sorted, and the callees of the calls inside its loops, their headers
    included."""
    kinds = sorted(type(node).__name__ for node in ast.walk(function)
                   if isinstance(node, LOOPS + COMPREHENSIONS))
    callees = {getattr(node.func, "attr", getattr(node.func, "id", None))
               for loop in ast.walk(function) if isinstance(loop, LOOPS)
               for node in ast.walk(loop) if isinstance(node, ast.Call)}
    return kinds, callees


def test_exact_evaluation_is_one_pass():
    # evaluate_policy forms offer value n on the step to n + 1 and steps
    # the post-extension state beside the prices; a second pass over the
    # prices, or a state computed on every step, redoes the loop's work.
    tree = ast.parse((ROOT / "src" / "uisearch" / "evaluate.py").read_text())
    function = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "evaluate_policy")
    kinds, callees = passes(function)
    assert kinds == ["For"]
    assert "post_extension_state" not in callees


def test_pass_guard_finds_loops_comprehensions_and_their_calls():
    tree = ast.parse("def f(xs):\n    for x in g(xs):\n        m.h(x)\n"
                     "    while k():\n        pass\n"
                     "    return [y for y in xs], {y: 1 for y in xs}, sum(y for y in xs)\n")
    assert passes(tree.body[0]) == (
        ["DictComp", "For", "GeneratorExp", "ListComp", "While"], {"g", "h", "k"})


def test_only_the_parameter_checks_write_to_frozen_objects():
    # A result that gains a hidden attribute after it is built is a second
    # channel beside its fields. The one use is MarketParams and
    # ExtensionSpec storing a checked whole number as an int.
    found = [(path.stem, *use) for path in sorted(ROOT.glob("src/uisearch/*.py"))
             for use in attribute_uses(ast.parse(path.read_text()), {"__setattr__"})]
    assert found == [("params", "__post_init__", "__setattr__")] * 2


def test_attribute_guard_finds_calls_and_bare_references():
    tree = ast.parse("f = d.cdf\ndef g():\n    d.cdf(x)\n    h(d.partial_expectation)\n"
                     "    d.sf(x)\n")
    assert attribute_uses(tree, {"cdf", "partial_expectation"}) == [
        (None, "cdf"), ("g", "cdf"), ("g", "partial_expectation")]


def blas_uses(node):
    """(function, use) of each ``@`` and each use of ``dot``, ``matmul`` or
    ``linalg`` under ``node``, as an attribute, a name or an import."""
    names = {"dot", "matmul", "linalg"}
    found = attribute_uses(node, names)
    for scope, child in scoped_nodes(node):
        if isinstance(child, ast.Name) and child.id in names:
            found.append((scope, child.id))
        elif isinstance(child, ast.alias) and names & set(child.name.split(".")):
            found.append((scope, child.name))
        elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
            found.append((scope, "@"))
    return found


def test_the_kernel_makes_no_blas_call():
    # The CLI runs numpy's OpenBLAS on one thread; a BLAS call in the
    # Monte Carlo kernel would make that a slowdown.
    tree = ast.parse((ROOT / "src" / "uisearch" / "montecarlo.py").read_text())
    assert blas_uses(tree) == []


def test_blas_guard_finds_each_form():
    tree = ast.parse("import numpy.linalg\nfrom numpy import dot\nx = a @ b\n"
                     "def f():\n    y @= np.matmul(a, b)\n    return dot\n")
    assert sorted(blas_uses(tree), key=str) == sorted(
        [(None, "numpy.linalg"), (None, "dot"), (None, "@"), ("f", "@"),
         ("f", "matmul"), ("f", "dot")], key=str)


def test_the_oracle_shares_no_solver_code():
    # uniform_closed_form checks the solver only while it computes every
    # wage on its own: it takes from schedule the result type and the
    # post-extension state, and calls no pricing, Newton or climbing step.
    tree = ast.parse((ROOT / "src" / "uisearch" / "closedform.py").read_text())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    from_schedule = {pair for pair in imported
                     if "schedule" in f"{pair[0]}.{pair[1]}".split(".")}
    assert from_schedule == {("schedule", "ReservationSchedule"),
                             ("schedule", "post_extension_state")}
    callees = {getattr(node.func, "attr", getattr(node.func, "id", None))
               for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not callees & {"_price", "_price_each", "upsilon", "_climb", "_fixed_point"}
    assert not [name for name in callees if name and name.startswith("solve_")]


def code_lines(source):
    """The numbers of the lines of ``source`` that hold code: a token
    other than a comment, outside every module, class and function
    docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstrings


def test_the_monte_carlo_kernel_keeps_its_line_budget():
    # The segment table serves one cohort or two on one path, and the
    # period loop runs a whole share as one generator; the special cases
    # and the hand-off between calls they replaced had taken
    # montecarlo.py to 441 code lines and the loop, then in
    # simulate_block, to 208.
    source = (ROOT / "src" / "uisearch" / "montecarlo.py").read_text()
    lines = code_lines(source)
    loop = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "_share")
    assert len(lines) <= 364
    assert len([n for n in lines if loop.lineno <= n <= loop.end_lineno]) <= 115


def test_line_count_leaves_out_docstrings_comments_and_blank_lines():
    source = ('"""Module\ndocstring."""\n\n# comment\ndef f(a,\n      b):\n'
              '    """One line."""\n    x = (a +  # trailing\n         b)\n\n'
              '    return """not a\n    docstring"""\n')
    assert sorted(code_lines(source)) == [5, 6, 8, 9, 11, 12]
