"""apksift: Android ransomware/malware triage from System-API occurrence
counts extracted statically from Dalvik bytecode."""

__version__ = "0.1.0"
