"""Bad twin for spawn-safety: fleet handlers a worker cannot run safely."""

from repro.serve.fleet import Fleet

_LIMIT = 8


def set_limit(limit: int) -> None:
    global _LIMIT
    _LIMIT = limit


def handle(buf, args, state):
    return len(buf) < _LIMIT  # LINT


def start(workers: int) -> None:
    def local(buf, args, state):
        return args

    Fleet(workers, handle)
    Fleet(workers, lambda buf, args, state: args)  # LINT
    Fleet(workers, handler=local)  # LINT
