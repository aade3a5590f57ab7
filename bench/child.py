"""Run one ``hiertype`` command in this fresh process and record spans.

Usage: python3 child.py SRC_DIR RESULT_JSON RUN_ID TRACE -- <hiertype args>

Wrappers are installed at run time around the functions named in
``BOUNDARIES``, under the module attribute each caller looks them up by
(``hiertype.training.encode_vectors_cached`` is the name
``_forward_backward`` calls).  With TRACE=0 only the two phase boundaries
(``cli.train`` and ``cli.evaluate_model``) are wrapped; they give the
benchmark its set-up and phase times at the cost of one wrapper call per
command.  With TRACE=1 every boundary is wrapped.

Spans are kept in memory as ``[name, start, end, parent, count, run_id]``
with ``time.monotonic`` stamps, the clock the parent uses, and written with
the process's own ``ru_maxrss`` when ``hiertype`` returns.  A
boundary that no longer exists is an error that names it: a metric is never
dropped silently.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

PHASES = ("cli.train", "cli.evaluate_model")
MISSING_NAME_EXIT = 3

def _first_len(args, result):
    return len(args[0])


# span name -> (attribute path under hiertype, count of work done per call)
BOUNDARIES = {
    "cli.train": ("cli.train", _first_len),
    "cli.evaluate_model": ("cli.evaluate_model", _first_len),
    "load_hierarchy": ("cli.load_hierarchy", None),
    "EmbeddingTable.load": ("corpus.EmbeddingTable.load", None),
    "read_corpus": ("cli.read_corpus", lambda args, result: len(result)),
    "label_records": ("cli.label_records", lambda args, result: len(result[0])),
    "EmbeddingTable.vectors": ("corpus.EmbeddingTable.vectors", lambda args, result: len(args[1])),
    "load_checkpoint": ("cli.load_checkpoint", None),
    "save_checkpoint": ("cli.save_checkpoint", None),
    "prepare_typing_batch": ("training.prepare_typing_batch", _first_len),
    "encode_vectors_cached": ("training.encode_vectors_cached", None),
    "sample_dropout_masks": ("training.sample_dropout_masks", None),
    "adam_step": ("training.adam_step", None),
    "training.evaluate_model": ("training.evaluate_model", _first_len),
    "encode_mention": ("evaluation.encode_mention", None),
    "rank_types": ("evaluation.rank_types", None),
    "average_precision": ("evaluation.average_precision", None),
}


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count):
        spans, stack, clock, run_id = self.spans, self._stack, time.monotonic, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, 0, run_id]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[4] = count(args, result) if count else 1
            return result

        return wrapper

    def install(self, names):
        for name in names:
            path, count = BOUNDARIES[name]
            parts = path.split(".")
            dotted = "hiertype." + path
            try:
                owner = importlib.import_module("hiertype." + parts[0])
                for attr in parts[1:-1]:
                    owner = getattr(owner, attr)
                raw = vars(owner)[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
            except (ModuleNotFoundError, AttributeError, KeyError):
                print(f"error: traced name {dotted} is missing; the benchmark cannot time it",
                      file=sys.stderr)
                raise SystemExit(MISSING_NAME_EXIT)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, count))
            else:
                wrapped = self.wrap(name, raw, count)
            setattr(owner, parts[-1], wrapped)


def main(argv: list[str]) -> int:
    src, result_path, run_id, trace = argv[:4]
    if argv[4] != "--":
        raise SystemExit("usage: child.py SRC RESULT RUN_ID TRACE -- ARGS...")
    sys.path.insert(0, src)
    recorder = Recorder(run_id)
    recorder.install(BOUNDARIES if trace == "1" else PHASES)
    from hiertype.cli import main as hiertype_main

    code = hiertype_main(argv[5:])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": recorder.spans,
        }, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
