"""Structured diagnostics shared by every checker layer.

Each finding is a :class:`CheckError` with a stable error code from
:data:`CODES`, so tests and CI can assert on *which* rule fired rather
than string-matching messages.  Codes are grouped by layer:

* ``Cxxx`` — machine-configuration validation,
* ``Pxxx`` — static program/CFG verification,
* ``Txxx`` — dynamic-trace legality,
* ``Kxxx`` — fetch-packet (scheme capability) rules,
* ``Sxxx`` — cycle-level pipeline sanitizer invariants,
* ``Dxxx`` — declarative study/experiment-design validation
  (:mod:`repro.study.spec`),
* ``Axxx`` — matrix-level resolution problems (unknown names).  This
  module owns A001–A009; A010 and up are the ``repro lint`` codebase
  analyzers (:mod:`repro.analysis.findings`), sharing the namespace.

The full catalogue, with the paper sections each rule models, lives in
``docs/checking.md`` (and ``docs/linting.md`` for the analyzer codes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Error-code catalogue: code -> one-line rule description.
CODES: dict[str, str] = {
    # -- machine configuration (Cxxx) --
    "C001": "I-cache size is not a power of two",
    "C002": "I-cache block size is not a power of two",
    "C003": "cache block does not hold at least the issue rate",
    "C004": "BTB entry count is not a power of two",
    "C005": "window/ROB geometry inconsistent with the issue rate",
    "C006": "non-positive functional-unit count",
    "C007": "latency/penalty/depth parameter out of range",
    "C008": "unknown enumerated configuration value",
    # -- static program verification (Pxxx) --
    "P001": "control-transfer target is not a basic-block start",
    "P002": "control-transfer target does not match the taken successor",
    "P003": "fall-through successor is not physically adjacent",
    "P004": "instruction addresses are not contiguous from the base",
    "P005": "instruction does not round-trip through the binary encoding",
    "P006": "CFG structural invariant violated",
    "P007": "basic block larger than the instruction cache",
    # -- dynamic-trace legality (Txxx) --
    "T001": "trace address outside the program image",
    "T002": "branch outcome is not an edge of the CFG",
    "T003": "non-control instruction followed by a non-sequential address",
    "T004": "return continuation does not match the call stack",
    "T005": "trace instruction is not the program's instruction at its address",
    # -- fetch-packet rules (Kxxx) --
    "K001": "empty fetch packet delivered without a stall",
    "K002": "fetch packet exceeds the fetch limit",
    "K003": "fetch packet does not start at the fetch address",
    "K004": "non-sequential step in a sequential-only scheme",
    "K005": "packet touches more cache blocks than the scheme can access",
    "K006": "prefetched block is not the next sequential block",
    "K007": "intra-block taken branch crossed without collapsing hardware",
    "K008": "backward intra-block branch merged by the collapsing buffer",
    "K009": "more than the allowed inter-block taken crossings",
    "K010": "packet blocks collide in the same cache bank",
    "K011": "address delivered twice within one packet (bounded-block schemes)",
    "K012": "negative or invalid address in the packet",
    "K013": "packet returns to a cache block it left",
    # -- pipeline sanitizer (Sxxx) --
    "S001": "retirement is not monotonic",
    "S002": "window occupancy disagrees with ready/waiting contents",
    "S003": "fetch-queue range outside the trace or over capacity",
    "S004": "unresolved-branch counter disagrees with the ROB",
    "S005": "ROB sequence numbers are not strictly increasing",
    "S006": "ROB occupancy exceeds its capacity",
    "S007": "simulation finished with undrained machine state",
    # -- declarative study design (Dxxx) --
    "D001": "unknown study toggle parameter",
    "D002": "toggle value illegal for its parameter",
    "D003": "duplicate or empty toggle declaration",
    "D004": "pairwise interaction names an unknown toggle",
    "D005": "study scenario field out of range",
    "D006": "toggle override yields an illegal machine configuration",
    "D007": "study expansion exceeds the run budget",
    # -- matrix resolution (Axxx) --
    "A001": "unknown fetch scheme",
    "A002": "unknown machine model",
    "A003": "unknown benchmark",
}


@dataclass(frozen=True, slots=True)
class CheckError:
    """One finding: a stable code, the subject checked, and the details.

    Attributes:
        code: Catalogue key from :data:`CODES`.
        subject: What was being checked (benchmark, machine, scheme name).
        message: Human-readable specifics of this occurrence.
        severity: ``"error"`` (fails the check) or ``"warning"``.
    """

    code: str
    subject: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown check code {self.code!r}")
        if self.severity not in ("error", "warning"):
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


class CheckFailure(Exception):
    """Raised when a validating entry point finds one or more errors."""

    def __init__(self, errors: list[CheckError]) -> None:
        self.errors = list(errors)
        summary = "; ".join(str(e) for e in self.errors[:5])
        if len(self.errors) > 5:
            summary += f" (+{len(self.errors) - 5} more)"
        super().__init__(summary or "check failed")

    @property
    def codes(self) -> tuple[str, ...]:
        """Codes of the carried errors, in order."""
        return tuple(e.code for e in self.errors)


@dataclass(slots=True)
class CheckReport:
    """Accumulated findings of a checking pass."""

    errors: list[CheckError] = field(default_factory=list)
    warnings: list[CheckError] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    def add(self, findings: list[CheckError]) -> None:
        """Fold one checker invocation's findings into the report."""
        self.checks_run += 1
        for finding in findings:
            if finding.severity == "warning":
                self.warnings.append(finding)
            else:
                self.errors.append(finding)

    def raise_if_failed(self) -> None:
        if self.errors:
            raise CheckFailure(self.errors)
