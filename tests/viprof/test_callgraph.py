"""Unit tests for the cross-layer call graph."""

from repro.profiling.model import Layer
from repro.pipeline.callgraph import CrossLayerCallGraph, LayeredNode


def node(layer, image, symbol):
    return LayeredNode(layer=layer, image=image, symbol=symbol)


APP = node(Layer.APP_JIT, "JIT.App", "app.Main.hot")
VM = node(Layer.VM, "RVM.map", "com.ibm.jikesrvm.VM_MainThread.run")
LIBC = node(Layer.NATIVE, "libc-2.3.2.so", "memset")
APP2 = node(Layer.APP_JIT, "JIT.App", "app.Main.helper")


class TestCrossLayerCallGraph:
    def test_layers_tracked(self):
        g = CrossLayerCallGraph()
        g.record(VM, APP, "EV")
        assert g.layer_of(APP.key) is Layer.APP_JIT
        assert g.layer_of(VM.key) is Layer.VM

    def test_cross_layer_arcs_only(self):
        g = CrossLayerCallGraph()
        g.record(VM, APP, "EV")     # cross: VM -> APP
        g.record(APP, APP2, "EV")   # same layer
        g.record(APP, LIBC, "EV")   # cross: APP -> NATIVE
        arcs = g.cross_layer_arcs("EV")
        pairs = {(l_from, l_to) for _, _, l_from, l_to in arcs}
        assert (Layer.VM, Layer.APP_JIT) in pairs
        assert (Layer.APP_JIT, Layer.NATIVE) in pairs
        assert (Layer.APP_JIT, Layer.APP_JIT) not in pairs

    def test_weights_sorted(self):
        g = CrossLayerCallGraph()
        for _ in range(5):
            g.record(APP, LIBC, "EV")
        g.record(VM, APP, "EV")
        arcs = g.cross_layer_arcs("EV")
        assert arcs[0][1] == 5

    def test_transition_matrix(self):
        g = CrossLayerCallGraph()
        g.record(VM, APP, "EV")
        g.record(VM, APP, "EV")
        g.record(APP, LIBC, "EV")
        m = g.layer_transition_matrix("EV")
        assert m[(Layer.VM, Layer.APP_JIT)] == 2
        assert m[(Layer.APP_JIT, Layer.NATIVE)] == 1

    def test_root_samples_have_no_arc(self):
        g = CrossLayerCallGraph()
        g.record(None, APP, "EV")
        assert g.cross_layer_arcs("EV") == []
        assert g.recorder.self_samples[APP.key]["EV"] == 1

    def test_format_table(self):
        g = CrossLayerCallGraph()
        g.record(APP, LIBC, "EV")
        txt = g.format_cross_layer_table("EV")
        assert "app-jit:app.Main.hot -> native:memset" in txt
