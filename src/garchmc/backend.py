"""The one likelihood kernel module, under the name the benchmark tracer patches.

``perfbench/tracer.py`` wraps ``backend.kernels.log_likelihood`` to count and
time scalar likelihood calls. ``model`` reaches its kernels through this
attribute, and looks the scalar kernel up when a posterior closure is made,
so a closure made after the patch calls the wrapper.
"""
from . import _kernels_py as kernels
