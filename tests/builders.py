"""The one way the tests build a config and its data.

config(**changes) is the default config with the given fields replaced, by
dataclasses.replace, so it is checked when it is made. bundle(**changes) is
prepare_data of that config, built once per distinct config (by its
canonical text) for the whole session: a bundle is frozen and its arrays
are read-only, so every test can share it. A test that changes a config or
a bundle after it was made builds its own with config() and prepare_data.
"""

import dataclasses

from tppat.config import default_config
from tppat.experiments import prepare_data

_BUNDLES: dict = {}


def config(**changes):
    return dataclasses.replace(default_config(), **changes)


def bundle(**changes):
    cfg = config(**changes)
    key = cfg.canonical_text()
    if key not in _BUNDLES:
        _BUNDLES[key] = prepare_data(cfg)
    return _BUNDLES[key]
