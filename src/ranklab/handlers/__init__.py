"""The CLI's command handlers: ``columns``, ``differences``, ``digits`` and
``certificates``, which holds every certificate command's handler.

``_cmd_<name>`` handles command ``<name>`` (dashes as underscores), given the
input ``cli.run`` loaded: the spec, or the digit alphabet for a command with
the digit-source flags.  ``cli``'s command table names the module ``run``
imports first: the handler module, or for a certificate command the part of
``certificates`` that its handler imports inside the function, never another
part.  Without cached bytecode each imported module is compiled on every
start, and the compiler's working memory lands on top of whatever is live, so
``run`` imports that module before argparse or a spec.
"""
