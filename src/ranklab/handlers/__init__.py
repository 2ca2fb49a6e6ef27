"""The CLI's command handlers, one module per command group.

``_cmd_<name>`` handles command ``<name>`` (dashes as underscores), given the
input ``cli.run`` loaded: the spec, or the digit alphabet for a command with
the digit-source flags.  ``cli``'s command table names each command's module:
``columns``, ``differences`` or ``digits``, or for a certificate command the
part of ``certificates`` that its module imports, never the other parts.
Without cached bytecode each imported module is compiled on every start, and
the compiler's working memory lands on top of whatever is live, so ``run``
imports the command's module first, before argparse or a spec.
"""
