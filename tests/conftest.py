import pytest


def compiled_loop_or_skip():
    """The compiled neuron updates (``_kernel.load()``); skips the test,
    saying why, when they are not available."""
    from spikeislands import _kernel

    kernel = _kernel.load()
    if kernel is None:
        pytest.skip("no C compiler found (sysconfig CC or cc)" if _kernel.compiler() is None else
                    "the compiled neuron updates failed to build, to load or to match the Python code")
    return kernel


@pytest.fixture(scope="session")
def kernel():
    return compiled_loop_or_skip()


@pytest.fixture(params=["compiled", "python"])
def engine_path(request, monkeypatch):
    """Takes a test through each path of the engine: the compiled neuron
    and synapse layers (skipped when they are not available), which run
    every network, one neuron without synapses included, and the Python
    code, the layers of a network and the single-neuron loop.  Gives the
    class of the network's neuron layer on that path, whose ``run`` takes
    every step of a network."""
    from spikeislands import _kernel, engine

    if request.param == "python":
        monkeypatch.setattr(_kernel, "load", lambda: None)
        return engine._NeuronLayer
    compiled_loop_or_skip()
    return _kernel.NeuronLayer
