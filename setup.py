"""Legacy setup shim for environments whose pip cannot build wheels offline."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Fault-tolerant graph spanners: reproduction of Dinitz & Krauthgamer, PODC 2011"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    # SciPy below 1.18: the HiGHS binding repro.lp drives is private to
    # SciPy, and its names were verified on 1.17.
    install_requires=["numpy", "scipy<1.18", "networkx"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    license="MIT",
    classifiers=[
        "Development Status :: 5 - Production/Stable",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Mathematics",
        "Topic :: System :: Distributed Computing",
    ],
)
