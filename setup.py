from setuptools import setup

setup(
    # The cohort sampler (repro.datasets.sampling) reproduces
    # Generator.integers' bounded-uint32 algorithm from raw PCG64 words,
    # so the range is what CI's numpy-compat legs run: the oldest NumPy
    # with wheels for the oldest Python tested, and the newest release.
    install_requires=["numpy>=1.22,<3"],
    extras_require={
        # The compiled kernel backend (REPRO_KERNELS=native / TrainConfig
        # kernels="native") loads its C library through cffi; a C
        # compiler (cc/gcc/clang) must be on PATH at first use.  The
        # numpy reference backend needs neither.
        "native": ["cffi"],
    },
)
