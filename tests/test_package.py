"""The package's public names."""

import maskgram


def test_every_exported_name_resolves():
    missing = [name for name in maskgram.__all__ if not hasattr(maskgram, name)]
    assert missing == []
