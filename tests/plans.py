"""``_clear_plans``: empty every plan cache (each object with a
``cache_clear``) of the loaded ``relaybound`` modules, so the next call builds
its plans cold."""

import sys


def _plan_caches():
    """Every ``cache_clear`` object of the loaded ``relaybound`` modules."""
    return [obj for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "relaybound"
            for obj in vars(module).values() if hasattr(obj, "cache_clear")]


def _clear_plans():
    for cache in _plan_caches():
        cache.cache_clear()
