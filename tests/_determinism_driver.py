"""Run every CLI command over the full corpus and fingerprint all outputs.

Invoked as a subprocess by the acceptance suite under different
PYTHONHASHSEED values; equal fingerprints mean every byte of stdout, stderr,
exit codes and written files is reproducible.  The hashed argv names corpus
files as ``corpus/<name>.json``, so the fingerprint does not depend on where
the checkout lives.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from coalgmin.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def corpus_names():
    return sorted(p.stem for p in CORPUS.glob("*.json"))


def is_coalgebra_doc(name: str) -> bool:
    doc = json.loads((CORPUS / f"{name}.json").read_text())
    return "functor" in doc


def is_pointed_doc(name: str) -> bool:
    doc = json.loads((CORPUS / f"{name}.json").read_text())
    return "point" in doc


def main() -> None:
    fingerprint = hashlib.sha256()
    coalgebras = [n for n in corpus_names() if is_coalgebra_doc(n)]
    pointed = [n for n in coalgebras if is_pointed_doc(n)]

    commands: list[list[str]] = []
    for name in coalgebras:
        path = f"corpus/{name}.json"
        commands.append(["validate", path])
        commands.append(["dot", path])
        commands.append(["minimize", path, "--out-dir", f"min-{name}"])
    for name in pointed:
        path = f"corpus/{name}.json"
        commands.append(["reach", path, "--out-dir", f"reach-{name}"])
        commands.append(["wellpoint", path, "--order", "both", "--out-dir", f"wp-{name}"])
        commands.append(["unravel", path, "--out-dir", f"tree-{name}"])
    dfa_dom = "corpus/dfa_no_trailing_b.json"
    dfa_cod = "corpus/dfa_merge_target.json"
    commands += [
        ["check-hom", "--dom", dfa_dom, "--cod", dfa_cod,
         "--map", "corpus/dfa_merge_map.json"],
        ["check-hom", "--dom", dfa_dom, "--cod", dfa_cod,
         "--map", "corpus/dfa_merge_map_perturbed.json"],
        ["factorize", "--dom", dfa_dom, "--cod", dfa_cod,
         "--map", "corpus/dfa_merge_map.json", "--out-dir", "fact"],
        ["quotient", "corpus/cancel_fork.json",
         "--partition", "corpus/cancel_fork_partition.json", "--out-dir", "quot"],
        ["iso", "corpus/ts_branching.json",
         "corpus/ts_branching_reduced.json", "--pointed"],
        ["homs", "corpus/ts_branching.json", "corpus/ts_branching.json"],
        ["props", "--suite", "commutation", "--seeds", "3"],
    ]

    with tempfile.TemporaryDirectory(prefix="coalgmin-determinism-") as tmp:
        workdir = Path(tmp)
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            full = [str(ROOT / a) if a.startswith("corpus/") else a for a in argv]
            if "--out-dir" in full:
                at = full.index("--out-dir") + 1
                full[at] = str(workdir / full[at])
            with redirect_stdout(out), redirect_stderr(err):
                code = run_command(full)
            fingerprint.update(repr(argv).encode())
            fingerprint.update(str(code).encode())
            fingerprint.update(out.getvalue().encode())
            fingerprint.update(err.getvalue().encode())
        for path in sorted(workdir.rglob("*.json")):
            fingerprint.update(str(path.relative_to(workdir)).encode())
            fingerprint.update(path.read_bytes())

    # instance digests feed property reports; they must not depend on the
    # interpreter's hash seed either
    from coalgmin.formats import parse_coalgebra
    from coalgmin.oracles import stable_digest

    for name in coalgebras:
        c = parse_coalgebra((CORPUS / f"{name}.json").read_text())
        fingerprint.update(stable_digest(c).encode())
    print(fingerprint.hexdigest())


if __name__ == "__main__":
    main()
