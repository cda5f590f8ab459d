"""Interpreter for logic programs distributed as web pages.

Programs are identified by the page that serves them, composed with
union / intersection / restriction / encapsulation operators, and
evaluated under per-program security policies with resource guards.
"""

from .engine import (Barrier, Engine, EngineConfig, EngineError, Session,
                     Solution, solutions)
from .fetching import (FetchConfig, FetchError, PageEntry, add_programs,
                       download, fetch_response, load_store, save_store)
from .guards import (EngineHooks, Guard, GuardConfig, GuardOutcome,
                     GuardTermination, guarded_solve)
from .model import (Clause, EMPTY_PROGRAM, EmptyProgram, Encapsulation,
                    ExpressionError, Intersection, LWProgram,
                    ProgramExpression, ProgramId, ProgramStore, Restriction,
                    Union, clause_from_term, clause_text, clause_to_term,
                    expids, expr_from_term, expr_text, expr_to_term,
                    parse_goal, parse_program)
from .pages import (HttpResponse, LWCodeError, extract_links, extract_lw_code,
                    translate_page)
from .security import (AuditEvent, AuditLog, PolicyRegistry, RegistryError)
from .signatures import (KeyStore, SignatureError, SignedPage, authenticate,
                         generate_keypair, is_signed, sign_page, split_signed)
from .syntax import ParseError, parse_term_text, to_text
from .terms import (Atom, Num, Str, Struct, Substitution, Term, Var,
                    fresh_var, make_list, unify, variant)

__version__ = "0.1.0"
