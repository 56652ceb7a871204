"""Extra GP coverage: marginal likelihood and kernel interplay."""

import numpy as np
import pytest

from repro.bo import Exponential, GaussianProcess, Matern52


def l1_pairwise(a, b=None):
    b = a if b is None else b
    return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)


def closed_form_lml(kernel, x, y, jitter):
    """log N(y_s | 0, K + jitter*I) of the standardized targets y_s."""
    y_s = (y - y.mean()) / y.std()
    gram = kernel(l1_pairwise(x)) + jitter * np.eye(len(y))
    _, log_det = np.linalg.slogdet(gram)
    return (-0.5 * y_s @ np.linalg.solve(gram, y_s) - 0.5 * log_det
            - 0.5 * len(y) * np.log(2 * np.pi))


class TestLogMarginalLikelihood:
    @pytest.mark.parametrize("x, y, noise, jitter", [
        # 1-D points: Matérn-5/2 on L1 is PSD there, noise is the jitter
        (np.linspace(0, 1, 8).reshape(-1, 1),
         np.sin(3 * np.linspace(0, 1, 8)), 1e-3, 1e-3),
        # two identical encodings at noise 0: the Gram matrix is
        # singular and the jitter ladder escalates to 1e-10
        (np.array([[0.3, 0.7], [0.3, 0.7]]), np.array([0.0, 1.0]),
         0.0, 1e-10),
    ], ids=["noise", "jitter-escalated"])
    def test_matches_closed_form_of_fitted_model(self, x, y, noise, jitter):
        gp = GaussianProcess(Matern52(0.5), l1_pairwise, noise=noise)
        gp.fit(x, y)
        assert gp.log_marginal_likelihood() == pytest.approx(
            closed_form_lml(gp.kernel, x, y, jitter), rel=1e-6)

    def test_finite_after_fit(self, rng):
        gp = GaussianProcess(Matern52(1.0), l1_pairwise, noise=1e-3)
        gp.fit(rng.uniform(size=(6, 2)), rng.normal(size=6))
        assert np.isfinite(gp.log_marginal_likelihood())

    def test_unfitted_raises(self):
        gp = GaussianProcess(Matern52(1.0), l1_pairwise)
        with pytest.raises(RuntimeError):
            gp.log_marginal_likelihood()

    def test_smooth_data_likelier_than_noise(self, rng):
        """Targets that vary smoothly with the metric should be more likely
        under the smooth prior than shuffled targets."""
        x = np.linspace(0, 1, 12).reshape(-1, 1)
        y_smooth = np.sin(3 * x[:, 0])
        y_shuffled = y_smooth.copy()
        rng.shuffle(y_shuffled)
        gp = GaussianProcess(Matern52(0.5), l1_pairwise, noise=1e-3)
        gp.fit(x, y_smooth)
        lml_smooth = gp.log_marginal_likelihood()
        gp.fit(x, y_shuffled)
        lml_shuffled = gp.log_marginal_likelihood()
        assert lml_smooth > lml_shuffled


class TestKernelChoiceEffects:
    def test_exponential_kernel_psd_on_l1(self, rng):
        """The Laplacian kernel is provably PSD for L1 metrics: the Gram
        matrix of random points must have non-negative eigenvalues."""
        x = rng.uniform(size=(20, 5))
        gram = Exponential(0.5)(l1_pairwise(x))
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-10

    def test_shorter_length_scale_localizes_posterior(self, rng):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        probe = np.array([[0.5]])
        means = {}
        for ls in (0.05, 5.0):
            gp = GaussianProcess(Matern52(ls), l1_pairwise, noise=1e-6)
            gp.fit(x, y)
            _, std = gp.predict(probe)
            means[ls] = std[0]
        # short length scale: the probe is "far" from both points ->
        # larger posterior uncertainty
        assert means[0.05] > means[5.0]
