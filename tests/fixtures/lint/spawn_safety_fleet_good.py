"""Good twin for spawn-safety: a module-level fleet handler on plain data."""

from repro.serve.fleet import Fleet

_LIMIT = 8


def handle(buf, args, state):
    return len(buf) < _LIMIT


def start(workers: int) -> None:
    Fleet(workers, handle, max_task_retries=2)
    Fleet(workers, handler=handle)
