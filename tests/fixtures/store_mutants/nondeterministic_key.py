"""Seeded mutants: every REP015 failure family, with clean twins.

Each ``*_mutant`` function is a realistic way a RunKey builder rots —
stamping the current time into a salt, hashing the absolute store
path, folding a dict in insertion order, serializing without
``sort_keys`` — paired with the canonical clean form.  The REP015
tests assert the rule flags every mutant and stays silent on every
twin (and on ``open_for_salt``, the abspath-feeds-open shape a salt
over file contents uses legitimately).
"""

import hashlib
import json
import os
import time


def stamped_salt_mutant():
    digest = hashlib.sha256()
    digest.update(repr(time.time()).encode())  # REP015: clock in a key
    return digest.hexdigest()


def session_fingerprint_mutant(graph):
    digest = hashlib.sha256()
    digest.update(repr(os.getpid()).encode())  # REP015: pid in a key
    digest.update(repr(id(graph)).encode())  # REP015: object identity
    return digest.hexdigest()


def path_salt_mutant(path):
    digest = hashlib.sha256()
    digest.update(os.path.abspath(path).encode())  # REP015: machine-local
    return digest.hexdigest()


def staged_path_salt_mutant(path):
    resolved = os.path.realpath(path)
    digest = hashlib.sha256()
    digest.update(resolved.encode())  # REP015: machine-local via a name
    return digest.hexdigest()


def config_fingerprint_mutant(config):
    digest = hashlib.sha256()
    for name, value in config.items():  # REP015: insertion order
        digest.update(("%s=%r" % (name, value)).encode())
    return digest.hexdigest()


def json_key_for_mutant(fields):
    payload = json.dumps(fields)  # REP015: no sort_keys
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# clean twins: the canonical forms of each mutant above
# ----------------------------------------------------------------------
def versioned_salt(version):
    digest = hashlib.sha256()
    digest.update(version.encode())
    return digest.hexdigest()


def config_fingerprint(config):
    digest = hashlib.sha256()
    for name, value in sorted(config.items()):
        digest.update(("%s=%r" % (name, value)).encode())
    return digest.hexdigest()


def json_key_for(fields):
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def open_for_salt(path):
    # abspath feeding open() is fine: the *contents* are hashed, the
    # resolved path never enters the digest (content-salt idiom).
    digest = hashlib.sha256()
    with open(os.path.abspath(path), "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def helper_inside_key_for(fields):
    # A nested non-key helper may resolve paths and read the clock for
    # I/O; its body is scoped by its own name, not the enclosing key
    # function's.
    def locate(name):
        stamp = time.time()
        return os.path.join(os.getcwd(), "%s.%d" % (name, stamp))

    payload = json.dumps(fields, sort_keys=True)
    assert locate("x")
    return hashlib.sha256(payload.encode()).hexdigest()
