"""The outputs of 82 fixed runs match tests/golden_outputs.json.

See tests/golden.py for the runs and the manifest.  On a machine whose
numpy version and CPU model are those recorded in the manifest, every file
must match byte for byte.  Elsewhere each file must keep its text outside
the numbers and its count of numbers, and its weighted sums must agree to
golden.FALLBACK_RTOL of their magnitudes; the failure message says which
comparison was made.  A change that moves outputs on purpose rewrites the
manifest with `PYTHONPATH=src python tests/golden.py --against HEAD`.
"""

import hashlib
import json
import warnings

import golden


def test_golden_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text())
    paths = golden.write_outputs(tmp_path)
    assert paths == sorted(manifest["files"]), "the set of output files differs"

    facts = golden.machine_facts()
    same_machine = facts == manifest["machine"]
    problems = []
    for path in paths:
        data = (tmp_path / path).read_bytes()
        want = manifest["files"][path]
        if same_machine:
            if hashlib.sha256(data).hexdigest() != want["sha256"]:
                problems.append(f"{path}: bytes differ")
        else:
            problems += [f"{path}: {problem}" for problem in
                         golden.fingerprint_differences(golden.fingerprint(data), want)]
    how = ("byte for byte" if same_machine else
           f"at {golden.FALLBACK_RTOL} relative, because this machine "
           f"({facts}) is not the manifest's ({manifest['machine']})")
    assert not problems, f"compared {how}:\n" + "\n".join(problems)
    if not same_machine:
        warnings.warn(f"golden outputs compared {how}")
