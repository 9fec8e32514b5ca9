"""Set-up time in one fresh interpreter: import the program, then parse
every instance and build its decoder.

    python3 perfbench/setup_probe.py <src dir> <problem>:<alpha>:<path> ...

`<alpha>` is empty for problems without one.  Prints one JSON object with
`import_s`, `parse_s` per problem and `setup_s`, the whole.
"""

import json
import sys
import time


def main(src, specs):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from keyopt.problems import load_instance, make_decoder
    import keyopt.harness  # noqa: F401 - the whole program, as a run imports it

    out = {"import_s": time.perf_counter() - t0, "parse_s": {}}
    for spec in specs:
        problem, alpha, path = spec.split(":", 2)
        t1 = time.perf_counter()
        instance = load_instance(problem, path, alpha=int(alpha) if alpha else None)
        out["parse_s"][problem] = time.perf_counter() - t1
        make_decoder(problem, instance)
    out["setup_s"] = time.perf_counter() - t0
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
