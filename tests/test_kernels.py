"""The torus arithmetic names its one implementation."""

from qca.torus import KERNEL_BACKEND


def test_active_backend_is_known():
    assert KERNEL_BACKEND in ("python", "cython")
    assert KERNEL_BACKEND == "python"
