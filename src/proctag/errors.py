"""Shared exception base."""


class ProcTagError(Exception):
    """Base class for every error raised by this package.

    An error raised in a worker process is re-raised in the parent, so each
    one pickles as its message and attributes: unpickling must not call a
    constructor whose parameters are not the message.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args), self.__dict__


def _restore(cls: type[ProcTagError], args: tuple) -> ProcTagError:
    err = Exception.__new__(cls)
    err.args = args
    return err
