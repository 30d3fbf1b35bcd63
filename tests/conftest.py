"""Have pytest rewrite the asserts in ``helpers``, so they still check under ``python -O``."""

import pytest

pytest.register_assert_rewrite("helpers")
