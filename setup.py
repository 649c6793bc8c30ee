"""Legacy setup shim for offline editable installs (no `wheel` available)."""

from setuptools import setup

setup(install_requires=["numpy"])
