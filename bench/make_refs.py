"""Record the reference digest of every pool item's output in bench/refs.json.

    python3 bench/make_refs.py [workload ...]

Run at a commit whose outputs are the reference. Items that do not decide
within the cap get no digest, so they fail in the benchmark until a later
run of this script, at a commit where they decide, adds one.
"""
import json
import shutil
import sys

import run
import workloads

CHUNK = 200


def main(names) -> None:
    path = run.BENCH / "refs.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    shutil.rmtree(run.WORK, ignore_errors=True)
    (run.WORK / "docs").mkdir(parents=True)
    try:
        for workload in names or workloads.WORKLOADS:
            pool = workloads.pool(workload)
            keys = sorted(pool)
            digests = {}
            for i in range(0, len(keys), CHUNK):
                spec = {
                    "workload": workload,
                    "items": run.item_specs(keys[i : i + CHUNK], pool),
                    "cap_s": run.CAP_S,
                }
                out, *_ = run.launch(spec, 3600)
                for result in out["items"]:
                    if result["status"] == "ok":
                        digests[result["key"]] = result["digest"]
                    else:
                        print(f"{workload} {result['key']}: {result['status']}, no reference")
            refs[workload] = digests
            print(f"{workload}: {len(digests)} of {len(keys)} items have a reference")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
