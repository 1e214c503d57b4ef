"""REP015 — nondeterministic content in a cache key.

The store's whole correctness story rests on RunKey being a pure
function of run semantics; these tests pin the committed key module
clean, the rule firing on every seeded mutant family, and the two
deliberate non-findings (abspath feeding ``open``, functions outside
the name pattern) staying silent.
"""

from pathlib import Path

from repro.analysis.registry import get_rule
from repro.analysis.runner import run_rules
from repro.analysis.source import SourceFile

REPO = Path(__file__).resolve().parents[1]
MUTANTS = REPO / "tests" / "fixtures" / "store_mutants"
KEY_MODULE = REPO / "src" / "repro" / "store" / "key.py"


def _findings(path=None, text=None):
    src = (
        SourceFile("mutant.py", text)
        if text is not None
        else SourceFile.read(str(path))
    )
    kept, _suppressed = run_rules([src], [get_rule("REP015")])
    return kept


def test_rule_is_registered():
    rule = get_rule("REP015")
    assert rule is not None
    assert rule.name == "nondeterministic-key-content"
    assert rule.severity.value == "error"


def test_committed_key_module_is_clean():
    assert _findings(path=KEY_MODULE) == []


def test_every_mutant_family_fires():
    findings = _findings(path=MUTANTS / "nondeterministic_key.py")
    by_func = {}
    for finding in findings:
        name = finding.message.split("'")[1]
        by_func.setdefault(name, []).append(finding)
    assert set(by_func) == {
        "stamped_salt_mutant",
        "session_fingerprint_mutant",
        "path_salt_mutant",
        "staged_path_salt_mutant",
        "config_fingerprint_mutant",
        "json_key_for_mutant",
    }
    # The pid+id mutant carries two distinct sources; everything else
    # yields exactly one finding per function (no double-reporting of
    # update(path.encode()) shapes).
    assert len(by_func["session_fingerprint_mutant"]) == 2
    for name, group in by_func.items():
        if name != "session_fingerprint_mutant":
            assert len(group) == 1, (name, group)


def test_clock_reads_are_flagged_wherever_they_feed():
    findings = _findings(text=(
        "import time\n"
        "def run_key_for(k):\n"
        "    stamp = time.monotonic()\n"
        "    return (k, stamp)\n"
    ))
    assert len(findings) == 1
    assert "per-process/per-moment" in findings[0].message


def test_datetime_now_is_flagged_through_the_module_chain():
    findings = _findings(text=(
        "import datetime\n"
        "def canonical_stamp():\n"
        "    return datetime.datetime.now().isoformat()\n"
    ))
    assert len(findings) == 1
    assert "datetime.now()" in findings[0].message


def test_unsorted_json_dumps_is_flagged_and_sorted_is_not():
    bad = _findings(text=(
        "import json\n"
        "def key_for(fields):\n"
        "    return json.dumps(fields)\n"
    ))
    assert len(bad) == 1
    assert "sort_keys" in bad[0].message
    good = _findings(text=(
        "import json\n"
        "def key_for(fields):\n"
        "    return json.dumps(fields, sort_keys=True)\n"
    ))
    assert good == []


def test_sorted_items_loop_is_clean_unsorted_is_not():
    template = (
        "import hashlib\n"
        "def config_fingerprint(config):\n"
        "    digest = hashlib.sha256()\n"
        "    for name, value in %s:\n"
        "        digest.update(repr((name, value)).encode())\n"
        "    return digest.hexdigest()\n"
    )
    assert _findings(text=template % "sorted(config.items())") == []
    bad = _findings(text=template % "config.items()")
    assert len(bad) == 1
    assert "insertion order" in bad[0].message


def test_dict_view_loop_without_digest_sink_is_clean():
    # Iterating .items() to *build* something order-insensitive is not
    # the rule's business — only a digest feed is.
    findings = _findings(text=(
        "def canonical_view(config):\n"
        "    total = 0\n"
        "    for _name, value in config.items():\n"
        "        total += value\n"
        "    return total\n"
    ))
    assert findings == []


def test_functions_outside_the_name_pattern_are_out_of_scope():
    # A machine-local index may hash an abspath in a method named
    # 'key'; 'key' alone must not match the pattern.
    findings = _findings(text=(
        "import hashlib, os\n"
        "class LocalIndex:\n"
        "    def key(self, path):\n"
        "        digest = hashlib.sha256()\n"
        "        digest.update(os.path.abspath(path).encode())\n"
        "        return digest.hexdigest()\n"
    ))
    assert findings == []


def test_hash_inside_a_lambda_sort_key_is_in_the_key_functions_scope():
    # A lambda has no name of its own to be scoped by, so its body is
    # the key function's.
    findings = _findings(text=(
        "import hashlib\n"
        "def run_key_for(parts):\n"
        "    ordered = sorted(parts, key=lambda part: hash(part))\n"
        "    return hashlib.sha256(repr(ordered).encode()).hexdigest()\n"
    ))
    assert len(findings) == 1
    assert findings[0].line == 3
    assert "hash() is an interpreter-session value" in findings[0].message


def test_suppression_comment_silences_the_rule():
    findings = _findings(text=(
        "import json\n"
        "def key_for(fields):\n"
        "    # repro-lint: ok REP015 keys are single-machine here\n"
        "    return json.dumps(fields)\n"
    ))
    assert findings == []
