"""Build script.

The package is pure Python; one optional C extension accelerates the dense
mod-p row reduction used by the randomized oracle.  It is compiled from the
committed, Cython-generated ``src/loopcrystal/_rowreduce.c`` (regenerate it
with ``cython -3 src/loopcrystal/_rowreduce.pyx`` after editing the ``.pyx``).
The extension is optional: without a C compiler the build warns and installs
the pure-Python implementation in ``loopcrystal._linalg``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "loopcrystal._rowreduce",
            ["src/loopcrystal/_rowreduce.c"],
            optional=True,
        )
    ]
)
