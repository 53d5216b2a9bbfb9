"""``_clear_plans``: empty every bounded plan cache of ``relaybound.info``,
``relaybound.dm`` and ``relaybound.networks``, so the next call builds its
plans cold."""

from relaybound import dm, info, networks


def _clear_plans():
    for module in (info, dm, networks):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
