import pytest


def compiled_loop_or_skip():
    """The compiled single-neuron loop; skips the test, saying why, when it
    is not available."""
    from spikeislands import _kernel

    kernel = _kernel.load()
    if kernel is None:
        pytest.skip("no C compiler found (sysconfig CC or cc)" if _kernel.compiler() is None else
                    "the compiled single-neuron loop failed to build, to load or to match the Python loop")
    return kernel


@pytest.fixture(scope="session")
def kernel():
    return compiled_loop_or_skip()


@pytest.fixture(params=["compiled", "python"])
def scalar_loop(request, monkeypatch):
    """Takes a test through each single-neuron loop: the compiled one
    (skipped when it is not available) and the Python one."""
    from spikeislands import _kernel

    if request.param == "python":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    else:
        compiled_loop_or_skip()
    return request.param
