"""File system bit-provider (the paper's NFS-client provider).

"The bit-provider, in this case an NFS client, opens the corresponding
file for writing and returns the handle to the base document." (§2)

Fetches read the file from a :class:`~repro.providers.simfs.SimulatedFileSystem`;
the verifier polls the file's last-modification time exactly as §3's
example: "The bit-provider for the file corresponding to the paper draft
returns a verifier that polls the last-modification time of the file."
"""

from __future__ import annotations

from repro.contract.verifiers import ModificationTimeVerifier, Verifier
from repro.providers.base import BitProvider
from repro.providers.simfs import SimulatedFileSystem
from repro.sim.context import SimContext

__all__ = ["FileSystemProvider"]


class FileSystemProvider(BitProvider):
    """Serves one file from a simulated NFS filer."""

    repository_name = "nfs"

    def __init__(
        self,
        ctx: SimContext,
        filesystem: SimulatedFileSystem,
        path: str,
        verifier_poll_cost_ms: float = 0.5,
    ) -> None:
        super().__init__(ctx)
        self.filesystem = filesystem
        self.path = path
        self._verifier_poll_cost_ms = verifier_poll_cost_ms

    def make_verifier(self) -> Verifier:
        """An mtime-polling verifier snapshotting the current mtime."""
        return ModificationTimeVerifier(
            probe=lambda: self.filesystem.mtime_ms(self.path),
            observed_mtime_ms=self.filesystem.mtime_ms(self.path),
            cost_ms=self._verifier_poll_cost_ms,
        )

    def _retrieve(self) -> bytes:
        return self.filesystem.read(self.path)

    def _store(self, content: bytes) -> None:
        self.filesystem.write(self.path, content)
