"""Instance/report serialization, seeded generators and the CLI entry point
(``costshare.cli.main``)."""

from .formats import (InstanceParseError, parse_instance, report_text,
                      serialize_instance)
from .gen import GEN_KINDS, generate

__all__ = ["InstanceParseError", "parse_instance", "serialize_instance",
           "report_text", "GEN_KINDS", "generate"]
