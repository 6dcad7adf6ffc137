"""Call-graph builder and hot-path model unit tests."""

from __future__ import annotations

from repro.analysis.perf import callgraph
from repro.analysis.perf.callgraph import module_name_for
from repro.analysis.perf.hotmodel import build_hot_model
from repro.analysis.sources import parse_python


def build_call_graph(sources: list[tuple[str, str]]):
    """The graph of ``(path, text)`` pairs, parsed where the loader parses."""
    return callgraph.build_call_graph(
        [(path, parse_python(text, path)) for path, text in sources]
    )


def _graph(*sources: tuple[str, str]):
    graph, errors = build_call_graph(list(sources))
    assert errors == []
    return graph


class TestDeclarations:
    def test_module_functions_methods_and_nested(self):
        graph = _graph((
            "mod.py",
            "def top():\n"
            "    def inner():\n"
            "        pass\n"
            "    inner()\n"
            "class C:\n"
            "    def meth(self):\n"
            "        pass\n",
        ))
        assert "mod.top" in graph.nodes
        assert "mod.top.<locals>.inner" in graph.nodes
        assert "mod.C.meth" in graph.nodes
        assert graph.nodes["mod.C.meth"].cls == "mod.C"
        # The nested function is called from its enclosing scope.
        assert "mod.top.<locals>.inner" in graph.nodes["mod.top"].calls

    def test_module_name_anchors_at_src(self):
        assert module_name_for("src/repro/core/monitor.py") == "repro.core.monitor"
        assert module_name_for("tests/analysis/fixtures/x.py") == "x"

    def test_syntax_error_reported_not_fatal(self):
        graph, errors = build_call_graph([
            ("bad.py", "def broken(:\n"),
            ("ok.py", "def fine():\n    pass\n"),
        ])
        assert len(errors) == 1 and "bad.py" in errors[0]
        assert "ok.fine" in graph.nodes


class TestEdges:
    def test_bare_call_and_import(self):
        graph = _graph(
            ("src/pkg/util.py", "def helper():\n    pass\n"),
            (
                "src/pkg/main.py",
                "from pkg.util import helper\n"
                "def go():\n"
                "    helper()\n",
            ),
        )
        assert "pkg.util.helper" in graph.nodes["pkg.main.go"].calls

    def test_self_method_resolution(self):
        graph = _graph((
            "m.py",
            "class C:\n"
            "    def a(self):\n"
            "        self.b()\n"
            "    def b(self):\n"
            "        pass\n",
        ))
        assert "m.C.b" in graph.nodes["m.C.a"].calls

    def test_constructor_edge_goes_to_init(self):
        graph = _graph((
            "m.py",
            "class C:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "def make():\n"
            "    return C()\n",
        ))
        assert "m.C.__init__" in graph.nodes["m.make"].calls

    def test_class_attribute_heuristic(self):
        """``self.attr = ClassName()`` then ``self.attr.method()``."""
        graph = _graph((
            "m.py",
            "class Worker:\n"
            "    def run(self):\n"
            "        pass\n"
            "class Owner:\n"
            "    def __init__(self):\n"
            "        self.worker = Worker()\n"
            "    def go(self):\n"
            "        self.worker.run()\n",
        ))
        assert graph.attr_types["m.Owner"]["worker"] == "m.Worker"
        assert "m.Worker.run" in graph.nodes["m.Owner.go"].calls

    def test_annotated_parameter_type(self):
        graph = _graph((
            "m.py",
            "class Clock:\n"
            "    def advance(self):\n"
            "        pass\n"
            "def drive(clock: Clock):\n"
            "    clock.advance()\n",
        ))
        assert "m.Clock.advance" in graph.nodes["m.drive"].calls

    def test_local_from_a_factory_annotated_to_return_a_class(self):
        """``x = factory()`` types ``x`` by the factory's return annotation,
        even when the method name is too common for the unique fallback."""
        graph = _graph((
            "m.py",
            "class Timing:\n"
            "    def launch(self):\n"
            "        pass\n"
            "class Runner:\n"
            "    def launch(self):\n"
            "        pass\n"
            "def timing_for(ctx) -> Timing:\n"
            "    return Timing()\n"
            "def untyped(ctx):\n"
            "    return Timing()\n"
            "def run(ctx):\n"
            "    timing = timing_for(ctx)\n"
            "    timing.launch()\n"
            "def run_untyped(ctx):\n"
            "    timing = untyped(ctx)\n"
            "    timing.launch()\n",
        ))
        assert "m.Timing.launch" in graph.nodes["m.run"].calls
        assert "m.Runner.launch" not in graph.nodes["m.run"].calls
        assert not {"m.Timing.launch", "m.Runner.launch"} & graph.nodes[
            "m.run_untyped"
        ].calls

    def test_callback_registration_site(self):
        """A bare function reference passed as an argument gets an edge."""
        graph = _graph((
            "m.py",
            "def on_tick(now):\n"
            "    pass\n"
            "def arm(clock):\n"
            "    clock.call_at(1.0, on_tick)\n",
        ))
        assert "m.on_tick" in graph.nodes["m.arm"].calls

    def test_callback_through_an_attribute_chain(self):
        """A method reference two attributes deep resolves as a callee
        would: through the receiver's recorded type, else a unique owner."""
        graph = _graph((
            "m.py",
            "class Lib:\n"
            "    def count(self):\n"
            "        return 2\n"
            "class Mapper:\n"
            "    def __init__(self):\n"
            "        self._lib = Lib()\n"
            "    def _query(self, fn):\n"
            "        return fn()\n"
            "    def probe(self):\n"
            "        return self._query(self._lib.count)\n"
            "def use(box):\n"
            "    return run(box.inner.count)\n",
        ))
        assert "m.Lib.count" in graph.nodes["m.Mapper.probe"].calls
        assert "m.Lib.count" in graph.nodes["m.use"].calls

    def test_property_read_as_argument_is_not_a_callback(self):
        """Passing ``obj.prop`` passes its value; the getter is no callback."""
        graph = _graph((
            "m.py",
            "class App:\n"
            "    @property\n"
            "    def host(self):\n"
            "        return 1\n"
            "    def on_done(self):\n"
            "        pass\n"
            "    def wire(self, clock):\n"
            "        build(self.host)\n"
            "        clock.call_at(1.0, self.on_done)\n",
        ))
        calls = graph.nodes["m.App.wire"].calls
        assert "m.App.host" not in calls
        assert "m.App.on_done" in calls

    def test_unique_method_fallback(self):
        """``x.method()`` resolves when exactly one class defines it."""
        graph = _graph((
            "m.py",
            "class Only:\n"
            "    def rare_name(self):\n"
            "        pass\n"
            "def use(x):\n"
            "    x.rare_name()\n",
        ))
        assert "m.Only.rare_name" in graph.nodes["m.use"].calls

    def test_inherited_method_via_base(self):
        graph = _graph((
            "m.py",
            "class Base:\n"
            "    def shared(self):\n"
            "        pass\n"
            "class Child(Base):\n"
            "    def go(self):\n"
            "        self.shared()\n",
        ))
        assert "m.Base.shared" in graph.nodes["m.Child.go"].calls


class TestEnclosing:
    def test_innermost_function_wins(self):
        graph = _graph((
            "m.py",
            "def outer():\n"
            "    x = 1\n"
            "    def inner():\n"
            "        y = 2\n"
            "        return y\n"
            "    return inner\n",
        ))
        node = graph.enclosing("m.py", 4)
        assert node is not None and node.qname == "m.outer.<locals>.inner"
        assert graph.enclosing("m.py", 2).qname == "m.outer"
        assert graph.enclosing("m.py", 99) is None


class TestHotModel:
    def test_annotation_seed_propagates_transitively(self):
        graph = _graph((
            "m.py",
            "from repro.hotpath import hot_path\n"
            "@hot_path\n"
            "def entry():\n"
            "    middle()\n"
            "def middle():\n"
            "    leaf()\n"
            "def leaf():\n"
            "    pass\n"
            "def cold():\n"
            "    pass\n",
        ))
        model = build_hot_model(graph)
        assert model.is_hot("m.entry")
        assert model.is_hot("m.leaf")
        assert not model.is_hot("m.cold")
        assert model.chain_for("m.leaf") == "anno:m.entry → m.entry → m.middle → m.leaf"

    def test_cycle_terminates(self):
        graph = _graph((
            "m.py",
            "from repro.hotpath import hot_path\n"
            "@hot_path\n"
            "def a():\n"
            "    b()\n"
            "def b():\n"
            "    a()\n",
        ))
        model = build_hot_model(graph)
        assert model.is_hot("m.a") and model.is_hot("m.b")

    def test_shortest_chain_wins_deterministically(self):
        graph = _graph((
            "m.py",
            "from repro.hotpath import hot_path\n"
            "@hot_path\n"
            "def direct():\n"
            "    shared()\n"
            "@hot_path\n"
            "def indirect():\n"
            "    hop()\n"
            "def hop():\n"
            "    shared()\n"
            "def shared():\n"
            "    pass\n",
        ))
        first = build_hot_model(graph)
        second = build_hot_model(graph)
        # BFS depth 1 via ``direct`` beats depth 2 via ``indirect``.
        assert first.chain_for("m.shared") == "anno:m.direct → m.direct → m.shared"
        assert first.chain_for("m.shared") == second.chain_for("m.shared")
