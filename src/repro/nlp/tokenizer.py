"""Regex tokenizer with character offsets.

Offsets are preserved so the NER can report exact mention spans and so
entity density (entities per term, §VII-B) can be computed per sentence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_WORD = r"[A-Za-z]+(?:'[A-Za-z]+)?"  # internal apostrophe allowed (don't)

#: Matches exactly the tokens :attr:`Token.is_word` accepts: numbers and
#: punctuation never consume an ASCII letter, so scanning for words alone
#: finds the same words at the same offsets as the full token scan.
WORD_PATTERN = re.compile(_WORD)

_TOKEN_PATTERN = re.compile(
    rf"""
    {_WORD}                    # words
    | \d+(?:[.,]\d+)*          # numbers like 1,000 or 3.14
    | [^\w\s]                  # single punctuation mark
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """A token with its surface text and character span.

    Attributes:
        text: the token surface form.
        start: character offset of the first character.
        end: character offset one past the last character.
    """

    text: str
    start: int
    end: int

    @property
    def is_word(self) -> bool:
        """True for alphabetic tokens (not numbers or punctuation)."""
        return self.text[:1].isalpha()

    @property
    def is_capitalized(self) -> bool:
        """True if the token begins with an uppercase letter."""
        return self.text[:1].isupper()


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into :class:`Token` objects with offsets."""
    return [
        Token(match.group(), match.start(), match.end())
        for match in _TOKEN_PATTERN.finditer(text)
    ]


def tokenize_words(text: str, lowercase: bool = True) -> list[str]:
    """Word-only tokenization (drops numbers and punctuation)."""
    words = WORD_PATTERN.findall(text)
    if lowercase:
        words = [word.lower() for word in words]
    return words
